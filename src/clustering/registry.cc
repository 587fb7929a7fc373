#include "clustering/registry.h"

#include <cstdio>
#include <cstdlib>

#include "clustering/basic_ukmeans.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/uahc.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"

namespace uclust::clustering {

namespace {

std::unique_ptr<Clusterer> MakePruned(PruningStrategy strategy, bool shift) {
  BasicUkmeans::Params p;
  p.pruning = strategy;
  p.cluster_shift = shift;
  return std::make_unique<BasicUkmeans>(p);
}

}  // namespace

std::vector<std::string> RegisteredClusterers() {
  return {"UCPC",      "UK-means",        "CK-means",    "MMVar",
          "bUK-means", "MinMax-BB",       "MinMax-BB+shift",
          "VDBiP",     "VDBiP+shift",     "UK-medoids",  "UAHC",
          "FDBSCAN",   "FOPTICS"};
}

common::Result<std::unique_ptr<Clusterer>> MakeClusterer(
    std::string_view name) {
  if (name == "UCPC") return std::unique_ptr<Clusterer>(new Ucpc());
  // One algorithm under two names; the name is only the reported label.
  if (name == "UK-means" || name == "CK-means") {
    return std::unique_ptr<Clusterer>(
        new CkMeans(CkMeans::Params(), std::string(name)));
  }
  if (name == "MMVar") return std::unique_ptr<Clusterer>(new Mmvar());
  if (name == "bUK-means") {
    return std::unique_ptr<Clusterer>(new BasicUkmeans());
  }
  if (name == "MinMax-BB") {
    return common::Result<std::unique_ptr<Clusterer>>(
        MakePruned(PruningStrategy::kMinMaxBB, false));
  }
  if (name == "MinMax-BB+shift") {
    return common::Result<std::unique_ptr<Clusterer>>(
        MakePruned(PruningStrategy::kMinMaxBB, true));
  }
  if (name == "VDBiP") {
    return common::Result<std::unique_ptr<Clusterer>>(
        MakePruned(PruningStrategy::kVoronoi, false));
  }
  if (name == "VDBiP+shift") {
    return common::Result<std::unique_ptr<Clusterer>>(
        MakePruned(PruningStrategy::kVoronoi, true));
  }
  if (name == "UK-medoids") {
    return std::unique_ptr<Clusterer>(new UkMedoids());
  }
  if (name == "UAHC") return std::unique_ptr<Clusterer>(new Uahc());
  if (name == "FDBSCAN") return std::unique_ptr<Clusterer>(new Fdbscan());
  if (name == "FOPTICS") return std::unique_ptr<Clusterer>(new Foptics());
  return common::Status::NotFound("unknown clusterer: " + std::string(name));
}

common::Result<std::unique_ptr<Clusterer>> MakeClusterer(
    std::string_view name, const engine::Engine& eng) {
  auto result = MakeClusterer(name);
  if (result.ok()) result.ValueOrDie()->set_engine(eng);
  return result;
}

std::unique_ptr<Clusterer> MakeClustererOrDie(std::string_view name) {
  auto result = MakeClusterer(name);
  if (!result.ok()) {
    std::string names;
    for (const std::string& registered : RegisteredClusterers()) {
      if (!names.empty()) names += ", ";
      names += registered;
    }
    std::fprintf(stderr, "registry: %s\nregistered clusterers: %s\n",
                 result.status().ToString().c_str(), names.c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

std::unique_ptr<Clusterer> MakeClustererOrDie(std::string_view name,
                                              const engine::Engine& eng) {
  auto clusterer = MakeClustererOrDie(name);
  clusterer->set_engine(eng);
  return clusterer;
}

std::vector<std::unique_ptr<Clusterer>> MakeAllClusterers() {
  std::vector<std::unique_ptr<Clusterer>> out;
  for (const std::string& name : RegisteredClusterers()) {
    out.push_back(std::move(MakeClusterer(name)).ValueOrDie());
  }
  return out;
}

std::vector<std::unique_ptr<Clusterer>> MakeAllClusterers(
    const engine::EngineConfig& config) {
  const engine::Engine eng(config);
  std::vector<std::unique_ptr<Clusterer>> out;
  for (const std::string& name : RegisteredClusterers()) {
    out.push_back(std::move(MakeClusterer(name, eng)).ValueOrDie());
  }
  return out;
}

}  // namespace uclust::clustering
