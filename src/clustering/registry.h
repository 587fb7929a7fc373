// Name-based factory for every clustering algorithm in the library, so
// benches, examples, and downstream tools can select algorithms from
// configuration ("UCPC", "UK-means", "MinMax-BB", ...) without linking
// against each header.
#ifndef UCLUST_CLUSTERING_REGISTRY_H_
#define UCLUST_CLUSTERING_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clustering/clusterer.h"
#include "common/status.h"

namespace uclust::clustering {

/// Names accepted by MakeClusterer, in the paper's presentation order.
std::vector<std::string> RegisteredClusterers();

/// Creates an algorithm by name. Accepted names (case-sensitive):
/// "UCPC", "UK-means", "CK-means", "MMVar", "bUK-means", "MinMax-BB",
/// "MinMax-BB+shift", "VDBiP", "VDBiP+shift", "UK-medoids", "UAHC",
/// "FDBSCAN", "FOPTICS". "UK-means" and "CK-means" build the same
/// algorithm (CkMeans, the bound-pruned UK-means); each reports the name it
/// was built under.
common::Result<std::unique_ptr<Clusterer>> MakeClusterer(
    std::string_view name);

/// Creates an algorithm by name and installs `eng` as its execution engine.
/// Pass copies of one Engine to run a whole fleet of algorithms on a single
/// shared thread pool.
common::Result<std::unique_ptr<Clusterer>> MakeClusterer(
    std::string_view name, const engine::Engine& eng);

/// MakeClusterer for binaries that cannot proceed without the algorithm:
/// on an unknown name it prints the uniform one-line diagnostic
/// "registry: NotFound: unknown clusterer: <name>" (plus the registered
/// names) to stderr and exits with status 1. Library code — the service in
/// particular — uses the Result-returning MakeClusterer and reports the
/// Status instead.
std::unique_ptr<Clusterer> MakeClustererOrDie(std::string_view name);

/// MakeClustererOrDie with an execution engine installed.
std::unique_ptr<Clusterer> MakeClustererOrDie(std::string_view name,
                                              const engine::Engine& eng);

/// Creates one instance of every registered algorithm.
std::vector<std::unique_ptr<Clusterer>> MakeAllClusterers();

/// Creates one instance of every registered algorithm, all sharing one
/// engine built from `config`.
std::vector<std::unique_ptr<Clusterer>> MakeAllClusterers(
    const engine::EngineConfig& config);

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_REGISTRY_H_
