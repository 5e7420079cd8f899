#pragma once

// Packet-level access-phase simulation. The paper argues (§III-C) that its
// contention cost is approximately a linear transformation of the real
// 802.11 DCF delay. This module checks that claim on our own substrate: it
// replays the access phase as a discrete-event simulation — every node
// fetches every chunk from its cheapest copy; each hop must seize the
// relaying node, whose service time follows the DCF model — and reports
// per-fetch latency statistics that can be correlated against the abstract
// contention cost (bench/abl_latency_model).

#include <vector>

#include "graph/graph.h"
#include "metrics/cache_state.h"

namespace faircache::sim {

struct TrafficOptions {
  int num_chunks = 0;
  // Fetch start times are staggered by this many microseconds per (node,
  // chunk) pair to avoid a pathological time-zero burst; 0 = all at once.
  double stagger_us = 0.0;
};

struct FetchRecord {
  graph::NodeId requester = graph::kInvalidNode;
  metrics::ChunkId chunk = 0;
  graph::NodeId source = graph::kInvalidNode;
  double start_us = 0.0;
  double finish_us = 0.0;

  double latency_us() const { return finish_us - start_us; }
};

struct TrafficResult {
  std::vector<FetchRecord> fetches;
  double mean_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double max_latency_us = 0.0;
  double makespan_us = 0.0;  // last fetch completion
};

// Simulates the access phase for the placement in `state` on graph `g`.
// Every non-producer node fetches every chunk from its hop-nearest copy
// (ties by smaller node id), the fetch traverses the hop-shortest path,
// and each node on the path serves transmissions FIFO with the DCF service
// time (busy nodes queue the packet).
TrafficResult simulate_access_phase(const graph::Graph& g,
                                    const metrics::CacheState& state,
                                    const TrafficOptions& options);

// Simulates the dissemination phase: for each chunk, the producer pushes
// one copy down the Steiner tree connecting it to the chunk's holders
// (the same tree the evaluator charges for); each tree node forwards
// to its children serially under the DCF service model.
struct DisseminationResult {
  // Per chunk: when the last holder received its copy.
  std::vector<double> chunk_completion_us;
  double makespan_us = 0.0;
  long transmissions = 0;
};

DisseminationResult simulate_dissemination_phase(
    const graph::Graph& g, const metrics::CacheState& state,
    const TrafficOptions& options);

}  // namespace faircache::sim
