#include "baselines/ncf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/numeric.hpp"

namespace metas::baselines {

namespace {
constexpr int kHiddenUnits = 24;
constexpr double kLearningRate = 0.05;  // at epoch 0, then / (1 + 0.1 epoch)
constexpr double kL2 = 1e-4;
double relu(double x) { return x > 0.0 ? x : 0.0; }
}  // namespace

NeuralCollabFilter::NeuralCollabFilter(int num_items, NcfConfig cfg)
    : n_(num_items), cfg_(cfg) {
  if (num_items <= 0)
    throw std::invalid_argument("NeuralCollabFilter: num_items <= 0");
  util::Rng rng(cfg.seed);
  auto d = mac::checked_cast<std::size_t>(cfg.embedding_dim);
  auto h = mac::checked_cast<std::size_t>(kHiddenUnits);
  emb_.assign(mac::checked_cast<std::size_t>(n_), std::vector<double>(d));
  for (auto& row : emb_)
    for (double& v : row) v = rng.normal(0.0, 0.1);
  w1_.assign(h, std::vector<double>(2 * d));
  for (auto& row : w1_)
    for (double& v : row) v = rng.normal(0.0, std::sqrt(1.0 / (2.0 * static_cast<double>(d))));
  b1_.assign(h, 0.0);
  w2_.assign(h, 0.0);
  for (double& v : w2_) v = rng.normal(0.0, std::sqrt(1.0 / static_cast<double>(h)));
}

double NeuralCollabFilter::forward(int i, int j,
                                   std::vector<double>* hidden_out) const {
  auto d = mac::checked_cast<std::size_t>(cfg_.embedding_dim);
  auto h = mac::checked_cast<std::size_t>(kHiddenUnits);
  const auto& ei = emb_[mac::checked_cast<std::size_t>(i)];
  const auto& ej = emb_[mac::checked_cast<std::size_t>(j)];
  double z = b2_;
  if (hidden_out != nullptr) hidden_out->assign(h, 0.0);
  for (std::size_t k = 0; k < h; ++k) {
    double a = b1_[k];
    const auto& w = w1_[k];
    for (std::size_t t = 0; t < d; ++t) a += w[t] * ei[t] + w[d + t] * ej[t];
    double act = relu(a);
    if (hidden_out != nullptr) (*hidden_out)[k] = a;  // pre-activation kept
    z += w2_[k] * act;
  }
  return z;
}

void NeuralCollabFilter::fit(const std::vector<NcfEntry>& observed) {
  util::Rng rng(cfg_.seed + 1);
  auto d = mac::checked_cast<std::size_t>(cfg_.embedding_dim);
  auto h = mac::checked_cast<std::size_t>(kHiddenUnits);

  std::vector<std::size_t> order(observed.size() * 2);
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;

  std::vector<double> hidden(h);
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(order);
    double lr = kLearningRate / (1.0 + 0.1 * epoch);
    for (std::size_t idx : order) {
      const NcfEntry& e = observed[idx / 2];
      int i = idx % 2 == 0 ? e.i : e.j;
      int j = idx % 2 == 0 ? e.j : e.i;
      if (i < 0 || j < 0 || i >= n_ || j >= n_)
        throw std::out_of_range("NeuralCollabFilter::fit: index");
      double z = forward(i, j, &hidden);
      double pred = std::tanh(z);
      double err = pred - e.value;
      // d loss / d z through the tanh output.
      double gz = err * (1.0 - pred * pred);

      auto& ei = emb_[mac::checked_cast<std::size_t>(i)];
      auto& ej = emb_[mac::checked_cast<std::size_t>(j)];
      std::vector<double> gei(d, 0.0), gej(d, 0.0);
      for (std::size_t k = 0; k < h; ++k) {
        double act = relu(hidden[k]);
        double gw2 = gz * act;
        double ga = hidden[k] > 0.0 ? gz * w2_[k] : 0.0;
        w2_[k] -= lr * (gw2 + kL2 * w2_[k]);
        if (!mac::exact_zero(ga)) {
          auto& w = w1_[k];
          for (std::size_t t = 0; t < d; ++t) {
            gei[t] += ga * w[t];
            gej[t] += ga * w[d + t];
            w[t] -= lr * (ga * ei[t] + kL2 * w[t]);
            w[d + t] -= lr * (ga * ej[t] + kL2 * w[d + t]);
          }
          b1_[k] -= lr * ga;
        }
      }
      b2_ -= lr * gz;
      for (std::size_t t = 0; t < d; ++t) {
        ei[t] -= lr * (gei[t] + kL2 * ei[t]);
        ej[t] -= lr * (gej[t] + kL2 * ej[t]);
      }
    }
  }
}

double NeuralCollabFilter::predict(int i, int j) const {
  if (i < 0 || j < 0 || i >= n_ || j >= n_)
    throw std::out_of_range("NeuralCollabFilter::predict: index");
  // Symmetrize at inference time.
  double a = std::tanh(forward(i, j, nullptr));
  double b = std::tanh(forward(j, i, nullptr));
  return std::clamp(0.5 * (a + b), -1.0, 1.0);
}

}  // namespace metas::baselines
