#include "harness/sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace svmsim::harness {

Cycles Sweep::baseline(const std::string& app, const SimConfig& base) {
  const BaselineKey key = key_of(app, base);
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;
  }
  // Simulate outside the lock so concurrent callers computing different
  // baselines overlap. Two threads racing on the same key both compute the
  // same deterministic value; emplace keeps the first.
  auto w = apps::make_app(app, scale_);
  const SimConfig uni = uniprocessor_config(base);
  RunResult r = run(*w, uni);
  if (!r.validated) {
    throw std::runtime_error(app + ": uniprocessor run failed validation");
  }
  std::lock_guard<std::mutex> lk(mu_);
  return baselines_.emplace(key, r.time).first->second;
}

AppRun Sweep::run_point(const std::string& app, const SimConfig& cfg,
                        double param_value) {
  AppRun out;
  out.app = app;
  out.param = param_value;
  out.uniprocessor = baseline(app, cfg);
  auto w = apps::make_app(app, scale_);
  out.result = run(*w, cfg);
  if (!out.result.validated) {
    throw std::runtime_error(app + ": run failed validation");
  }
  return out;
}

void Sweep::prewarm_baselines(const std::vector<SweepPoint>& points,
                              JobPool* pool) {
  std::vector<const SweepPoint*> distinct;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<BaselineKey, bool> seen;
    for (const auto& p : points) {
      const BaselineKey key = key_of(p.app, p.cfg);
      if (baselines_.contains(key) ||
          !seen.emplace(key, true).second) {
        continue;
      }
      distinct.push_back(&p);
    }
  }
  std::vector<JobPool::Job> jobs;
  jobs.reserve(distinct.size());
  for (const SweepPoint* p : distinct) {
    jobs.push_back([this, p] {
      // A baseline that throws is left uncached: the point's own run_point
      // retries it and records the failure in its slot.
      try {
        baseline(p->app, p->cfg);
      } catch (const std::exception&) {
      }
    });
  }
  pool->run(std::move(jobs));
}

std::vector<std::size_t> first_equal(const std::vector<SweepPoint>& points) {
  std::vector<std::size_t> first(points.size());
  std::map<std::string, std::vector<std::size_t>> by_app;  // distinct points
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& seen = by_app[points[i].app];
    const auto it = std::find_if(seen.begin(), seen.end(), [&](std::size_t j) {
      return points[j].cfg == points[i].cfg;
    });
    first[i] = it != seen.end() ? *it : i;
    if (it == seen.end()) seen.push_back(i);
  }
  return first;
}

std::vector<AppRun> Sweep::run_points(const std::vector<SweepPoint>& points,
                                      std::span<const std::size_t> first,
                                      JobPool* pool) {
  std::vector<AppRun> out(points.size());
  auto run_slot = [this, &points, &out](std::size_t i) {
    const SweepPoint& p = points[i];
    try {
      out[i] = run_point(p.app, p.cfg, p.value);
    } catch (const std::exception& e) {
      out[i].app = p.app;
      out[i].param = p.value;
      out[i].error = e.what();
    }
  };
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (first[i] == i) distinct.push_back(i);
  }
  if (pool == nullptr || pool->size() <= 1 || distinct.size() <= 1) {
    for (std::size_t i : distinct) run_slot(i);
  } else {
    // Baselines first, so the fan-out below never computes one twice.
    prewarm_baselines(points, pool);
    std::vector<JobPool::Job> jobs;
    jobs.reserve(distinct.size());
    for (std::size_t i : distinct) {
      jobs.push_back([&run_slot, i] { run_slot(i); });
    }
    pool->run(std::move(jobs));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (first[i] == i) continue;
    out[i] = out[first[i]];
    out[i].param = points[i].value;
  }
  return out;
}

std::vector<AppRun> Sweep::run_sweep(
    const std::string& app, const SimConfig& base,
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, JobPool* pool) {
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (double v : values) {
    SweepPoint p{app, base, v};
    apply(p.cfg, v);
    points.push_back(std::move(p));
  }
  return run_points(points, pool);
}

double max_slowdown_pct(std::span<const AppRun> runs) {
  if (runs.size() < 2) return 0.0;
  // The paper computes the slowdown between the smallest and the biggest
  // value of the swept parameter: first point vs last point.
  const double fast = runs.front().speedup();
  const double slow = runs.back().speedup();
  // A non-positive speedup at either endpoint means that run is invalid
  // (zero time or zero baseline); there is no meaningful slowdown to report.
  if (fast <= 0.0 || slow <= 0.0) return 0.0;
  return (fast / slow - 1.0) * 100.0;
}

}  // namespace svmsim::harness
