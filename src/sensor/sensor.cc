#include "sensor/sensor.h"

#include <cmath>
#include <stdexcept>

namespace hydra::sensor {

SensorBank::SensorBank(std::size_t count, const SensorConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  if (count == 0) throw std::invalid_argument("sensor bank needs sensors");
  if (cfg.sample_rate.value() <= 0.0 ||
      !std::isfinite(cfg.sample_rate.value())) {
    throw std::invalid_argument(
        "sensor sample_rate must be positive and finite");
  }
  if (cfg.quantization.value() < 0.0 || cfg.noise_sigma.value() < 0.0 ||
      cfg.max_offset.value() < 0.0) {
    throw std::invalid_argument("bad sensor configuration");
  }
  offsets_.resize(count, 0.0);
  if (cfg_.enable_offset) {
    for (double& o : offsets_) o = -rng_.uniform(0.0, cfg_.max_offset.value());
  }
}

std::vector<double> SensorBank::sample(const std::vector<double>& truth) {
  std::vector<double> out;
  sample_into(truth, out);
  return out;
}

void SensorBank::sample_into(const std::vector<double>& truth,
                             std::vector<double>& out) {
  if (truth.size() < offsets_.size()) {
    throw std::invalid_argument("truth vector shorter than sensor bank");
  }
  out.resize(offsets_.size());
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    out[i] = sample_one(i, truth[i]);
  }
}

double SensorBank::sample_one(std::size_t i, double truth) {
  if (i >= offsets_.size()) {
    throw std::out_of_range("sensor index out of range");
  }
  double v = truth + offsets_[i];
  if (cfg_.enable_noise && cfg_.noise_sigma.value() > 0.0) {
    v += rng_.gaussian(0.0, cfg_.noise_sigma.value());
  }
  if (cfg_.quantization.value() > 0.0) {
    v = std::round(v / cfg_.quantization.value()) * cfg_.quantization.value();
  }
  return v;
}

}  // namespace hydra::sensor
