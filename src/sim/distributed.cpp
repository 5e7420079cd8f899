#include "sim/distributed.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_set>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "metrics/fairness.h"
#include "util/stopwatch.h"

namespace faircache::sim {

using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

enum class NodeStatus { kActive, kInactive, kAdmin };

// Per-node agent state for one chunk's bidding.
struct Agent {
  NodeStatus status = NodeStatus::kActive;
  NodeId data_source = kInvalidNode;  // where to fetch once frozen
  double fetch_cost = 0.0;  // accumulated contention cost to the source
  // Best FREEZE offer received so far (accepted once α covers it).
  NodeId offer_source = kInvalidNode;
  double offer_cost = kInfCost;
  double alpha = 0.0;
  // Keyed by neighbourhood index (parallel to `neighborhood`).
  std::vector<double> beta;
  std::vector<double> gamma;
  std::vector<char> sent_tight;
  std::vector<char> sent_span;
  // Facility-side state.
  std::vector<NodeId> tight_set;  // T: who TIGHT/SPANed me
  int span_count = 0;
  double paid = 0.0;  // β payments received toward my fairness cost
};

// Control messages that must survive loss: losing one would strand a
// bidder (FREEZE/NADMIN), hide an opening (BADMIN) or starve the ADMIN
// election (SPAN). TIGHT/CC/NPI losses only slow bidding down and are
// absorbed by the watchdog.
bool needs_ack(MessageType type) {
  return type == MessageType::kFreeze || type == MessageType::kNadmin ||
         type == MessageType::kBadmin || type == MessageType::kSpan;
}

// The ACK/retransmission layer: the initial retransmission timeout (RTO),
// the cap the RTO doubles up to per attempt, and the transmissions after
// which the sender gives up (the watchdog and crash repair take over).
constexpr int kAckTimeoutRounds = 4;
constexpr int kMaxBackoffRounds = 64;
constexpr int kMaxAttempts = 8;
static_assert(kAckTimeoutRounds >= 3,
              "RTO below the 2-round ACK RTT would retransmit spuriously");
static_assert(kMaxAttempts >= 1 && kMaxBackoffRounds >= kAckTimeoutRounds,
              "invalid reliability constants");

// A reliable message awaiting its ACK.
struct PendingSend {
  Message msg;
  int next_resend = 0;
  int backoff = 0;
  int attempts = 1;
};

}  // namespace

core::FairCachingResult DistributedFairCaching::run(
    const core::FairCachingProblem& problem) {
  FAIRCACHE_CHECK(problem.network != nullptr, "problem needs a network");
  FAIRCACHE_CHECK(config_.hop_limit >= 1, "hop limit must be ≥ 1");
  FAIRCACHE_CHECK(config_.alpha_step > 0 && config_.beta_step > 0 &&
                      config_.gamma_step > 0,
                  "step sizes must be positive");

  const graph::Graph& g = *problem.network;
  const int n = g.num_nodes();
  const NodeId producer = problem.producer;

  util::Stopwatch clock;
  core::FairCachingResult result;
  result.algorithm = name();
  result.state = problem.make_initial_state();
  stats_ = MessageStats{};
  total_rounds_ = 0;
  protocol_outcome_ = util::Status();

  // Optional unreliable network. One channel spans the whole run so that
  // CrashEvent rounds index global bus rounds across chunks.
  std::unique_ptr<FaultyChannel> channel;
  if (config_.faults.has_value()) {
    channel = std::make_unique<FaultyChannel>(*config_.faults, n);
  }

  // k-hop neighbourhoods are topology-only; compute once.
  std::vector<std::vector<NodeId>> neighborhood(
      static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : graph::k_hop_neighborhood(g, v, config_.hop_limit)) {
      if (w != v) neighborhood[static_cast<std::size_t>(v)].push_back(w);
    }
  }
  auto nbr_index = [&](NodeId j, NodeId i) -> std::size_t {
    const auto& nbrs = neighborhood[static_cast<std::size_t>(j)];
    const auto pos = std::find(nbrs.begin(), nbrs.end(), i);
    return pos == nbrs.end() ? nbrs.size()
                             : static_cast<std::size_t>(pos - nbrs.begin());
  };

  for (metrics::ChunkId chunk = 0; chunk < problem.num_chunks; ++chunk) {
    MessageBus bus(channel.get());

    // --- NPI: the producer floods the network (one copy per node). A node
    // that misses its copy learns of the chunk lazily from the first
    // protocol message that reaches it (overhearing). ---
    for (NodeId v = 0; v < n; ++v) {
      if (v != producer) {
        bus.send({MessageType::kNpi, producer, v, chunk, kInvalidNode, 0.0});
      }
    }
    std::vector<char> heard_npi(static_cast<std::size_t>(n), 1);
    if (channel) {
      heard_npi.assign(static_cast<std::size_t>(n), 0);
      heard_npi[static_cast<std::size_t>(producer)] = 1;
      for (const Message& m : bus.deliver_round()) {
        if (m.type == MessageType::kNpi) {
          heard_npi[static_cast<std::size_t>(m.to)] = 1;
        }
      }
    } else {
      bus.deliver_round();
    }

    // --- CC: contention collection within k hops. The replies let node j
    // assemble Con_ij for every neighbourhood member i; j only ever bids
    // toward members whose reply actually arrived. On the reliable path
    // every reply arrives and the local view equals the global contention
    // matrix restricted to k-hop pairs (summing per-node CC replies along
    // the BFS path yields exactly that). ---
    const metrics::ContentionMatrix contention(g, result.state);
    const std::vector<double> fairness =
        config_.instance.fairness.costs(result.state);

    // known[j][idx] = Con_ij learned from i's CC reply (∞ until heard).
    std::vector<std::vector<double>> known(static_cast<std::size_t>(n));
    for (NodeId j = 0; j < n; ++j) {
      known[static_cast<std::size_t>(j)].assign(
          neighborhood[static_cast<std::size_t>(j)].size(), kInfCost);
    }
    std::vector<Message> cc_batch;
    if (!channel) {
      for (NodeId j = 0; j < n; ++j) {
        for (NodeId i : neighborhood[static_cast<std::size_t>(j)]) {
          bus.send({MessageType::kCc, j, i, chunk, kInvalidNode, 0.0});
          bus.send({MessageType::kCcReply, i, j, chunk, i,
                    contention.cost(i, j)});
        }
      }
      cc_batch = bus.deliver_round();
    } else {
      for (NodeId j = 0; j < n; ++j) {
        if (!heard_npi[static_cast<std::size_t>(j)]) continue;
        for (NodeId i : neighborhood[static_cast<std::size_t>(j)]) {
          bus.send({MessageType::kCc, j, i, chunk, kInvalidNode, 0.0});
        }
      }
      for (const Message& m : bus.deliver_round()) {
        if (m.type != MessageType::kCc) continue;
        bus.send({MessageType::kCcReply, m.to, m.from, chunk, m.to,
                  contention.cost(m.to, m.from)});
      }
      cc_batch = bus.deliver_round();
    }
    for (const Message& m : cc_batch) {
      if (m.type != MessageType::kCcReply) continue;
      const std::size_t idx = nbr_index(m.to, m.from);
      if (idx < known[static_cast<std::size_t>(m.to)].size()) {
        known[static_cast<std::size_t>(m.to)][idx] = m.value;
      }
    }

    auto con = [&](NodeId i, NodeId j) { return contention.cost(i, j); };

    // --- Agent setup. ---
    std::vector<Agent> agents(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      auto& agent = agents[static_cast<std::size_t>(v)];
      const std::size_t k =
          neighborhood[static_cast<std::size_t>(v)].size();
      agent.beta.assign(k, 0.0);
      agent.gamma.assign(k, 0.0);
      agent.sent_tight.assign(k, 0);
      agent.sent_span.assign(k, 0);
    }
    // The producer always has the data: it behaves as a frozen node whose
    // source is itself.
    agents[static_cast<std::size_t>(producer)].status =
        NodeStatus::kInactive;
    agents[static_cast<std::size_t>(producer)].data_source = producer;

    auto openable = [&](NodeId i) {
      return i != producer &&
             fairness[static_cast<std::size_t>(i)] != kInfCost &&
             result.state.can_cache(i, chunk);
    };

    // --- Reliable transport (channel path only): every FREEZE / NADMIN /
    // BADMIN / SPAN carries a sequence number, is ACKed by the receiver,
    // deduplicated by seq, and retransmitted with exponential backoff
    // until acknowledged or out of attempts. ---
    std::map<long, PendingSend> pending;  // ordered: deterministic resends
    std::unordered_set<long> seen;
    long next_seq = 0;
    int round = 0;
    auto post = [&](Message m) {
      if (channel && needs_ack(m.type)) {
        m.seq = next_seq++;
        PendingSend p;
        p.msg = m;
        p.backoff = kAckTimeoutRounds;
        p.next_resend = round + p.backoff;
        p.attempts = 1;
        pending.emplace(m.seq, p);
      }
      bus.send(m);
    };

    // Freeze node j onto `source`, reachable at `cost`. A frozen node
    // relays FREEZE offers to every bidder in its T set (Algorithm 2,
    // Receive FREEZE) so the freezing wave keeps moving outward from the
    // producer; the offer carries the accumulated chain cost, and the
    // receiver only accepts once its α bid covers it.
    auto freeze = [&](NodeId j, NodeId source, double cost) {
      auto& agent = agents[static_cast<std::size_t>(j)];
      if (agent.status != NodeStatus::kActive) return;
      agent.status = NodeStatus::kInactive;
      agent.data_source = source;
      agent.fetch_cost = cost;
      for (NodeId t : agent.tight_set) {
        post({MessageType::kFreeze, j, t, chunk, source, cost + con(j, t)});
      }
    };

    // Record an incoming FREEZE offer; accepted in the bidding loop once
    // α_j reaches the offered chain cost.
    auto record_offer = [&](NodeId j, NodeId source, double cost) {
      auto& agent = agents[static_cast<std::size_t>(j)];
      if (agent.status != NodeStatus::kActive) return;
      if (cost < agent.offer_cost) {
        agent.offer_cost = cost;
        agent.offer_source = source;
      }
    };

    auto make_admin = [&](NodeId i) {
      auto& agent = agents[static_cast<std::size_t>(i)];
      agent.status = NodeStatus::kAdmin;
      agent.data_source = i;
      for (NodeId j : agent.tight_set) {
        post({MessageType::kNadmin, i, j, chunk, i, 0.0});
      }
      for (NodeId v = 0; v < n; ++v) {
        if (v != i) {
          post({MessageType::kBadmin, i, v, chunk, i, 0.0});
        }
      }
      // Proactive fetch from the producer happens in the dissemination
      // phase; the cache slot is claimed now.
    };

    // --- Bidding rounds. ---
    int max_rounds = config_.max_rounds;
    if (max_rounds == 0) {
      // Any freeze-offer chain is a simple path, so its cost is bounded by
      // the total contention weight of the network; α crosses that within
      // W/U_α rounds, plus slack for message latency per wave hop.
      const std::vector<double> weights =
          metrics::contention_weights(g, result.state);
      double total_weight = 1.0;
      for (double w : weights) total_weight += w;
      max_rounds = static_cast<int>(std::ceil(
                       total_weight / config_.alpha_step)) +
                   3 * n + 8;
    }

    for (; round < max_rounds; ++round) {
      // Deliver last round's messages.
      for (const Message& m : bus.deliver_round()) {
        if (m.ack) {
          pending.erase(m.seq);
          continue;
        }
        if (m.seq >= 0) {
          // ACK every reliable delivery (the previous ACK may have been
          // lost), then suppress duplicates.
          Message a;
          a.type = m.type;
          a.from = m.to;
          a.to = m.from;
          a.chunk = m.chunk;
          a.seq = m.seq;
          a.ack = true;
          bus.send(a);
          if (!seen.insert(m.seq).second) {
            ++stats_.deduplicated;
            continue;
          }
        }
        heard_npi[static_cast<std::size_t>(m.to)] = 1;
        auto& agent = agents[static_cast<std::size_t>(m.to)];
        switch (m.type) {
          case MessageType::kTight:
          case MessageType::kSpan: {
            if (agent.status == NodeStatus::kInactive) {
              post({MessageType::kFreeze, m.to, m.from, chunk,
                    agent.data_source,
                    agent.fetch_cost + con(m.to, m.from)});
              break;
            }
            if (agent.status == NodeStatus::kAdmin) {
              post({MessageType::kFreeze, m.to, m.from, chunk, m.to,
                    con(m.to, m.from)});
              break;
            }
            if (std::find(agent.tight_set.begin(), agent.tight_set.end(),
                          m.from) == agent.tight_set.end()) {
              agent.tight_set.push_back(m.from);
            }
            if (m.type == MessageType::kSpan) {
              agent.span_count += 1;
              const bool paid_up =
                  agent.paid + 1e-12 >=
                  fairness[static_cast<std::size_t>(m.to)];
              if (openable(m.to) && paid_up &&
                  agent.span_count >= config_.span_threshold) {
                make_admin(m.to);
              }
            }
            break;
          }
          case MessageType::kFreeze:
            record_offer(m.to, m.source, m.value);
            break;
          case MessageType::kNadmin: {
            // The admin accepted my SPAN: connect immediately.
            const std::size_t idx = nbr_index(m.to, m.source);
            const auto& costs = known[static_cast<std::size_t>(m.to)];
            freeze(m.to, m.source,
                   idx < costs.size() ? costs[idx] : con(m.source, m.to));
            break;
          }
          case MessageType::kBadmin: {
            // Freeze if my resource bid toward this admin was adequate
            // (β_j > Con_j in the paper's notation).
            if (agent.status != NodeStatus::kActive) break;
            const std::size_t idx = nbr_index(m.to, m.source);
            if (idx >= agent.beta.size()) break;
            const double cij = known[static_cast<std::size_t>(m.to)][idx];
            if (cij != kInfCost && agent.beta[idx] > cij) {
              freeze(m.to, m.source, cij);
            }
            break;
          }
          case MessageType::kNpi:
          case MessageType::kCc:
          case MessageType::kCcReply:
          case MessageType::kCount_:
            break;  // informational
        }
      }

      // Retransmit reliable messages whose ACK timed out; give up after
      // kMaxAttempts (the watchdog and crash repair cover the remainder).
      if (channel) {
        for (auto it = pending.begin(); it != pending.end();) {
          PendingSend& p = it->second;
          if (round >= p.next_resend) {
            if (p.attempts >= kMaxAttempts) {
              it = pending.erase(it);
              continue;
            }
            // A crashed sender cannot retransmit; it resumes on restart.
            if (channel->alive(p.msg.from)) {
              bus.resend(p.msg);
              ++p.attempts;
              p.backoff = std::min(2 * p.backoff, kMaxBackoffRounds);
            }
            p.next_resend = round + p.backoff;
          }
          ++it;
        }
      }

      // Check termination: all live nodes frozen (or admin) and no
      // application message still in flight. Crashed nodes don't block
      // termination — if they restart later they are repaired onto the
      // producer.
      bool everyone_settled = true;
      for (NodeId v = 0; v < n && everyone_settled; ++v) {
        if (agents[static_cast<std::size_t>(v)].status ==
                NodeStatus::kActive &&
            (!channel || channel->alive(v))) {
          everyone_settled = false;
        }
      }
      const bool all_done = everyone_settled && bus.app_idle();
      if (all_done) break;

      // Grow bids, accept affordable offers, emit requests.
      for (NodeId j = 0; j < n; ++j) {
        auto& agent = agents[static_cast<std::size_t>(j)];
        if (agent.status != NodeStatus::kActive) continue;
        if (channel &&
            (!channel->alive(j) || !heard_npi[static_cast<std::size_t>(j)])) {
          continue;  // down, or hasn't heard of the chunk yet
        }
        agent.alpha += config_.alpha_step;
        if (agent.alpha + 1e-12 >= agent.offer_cost) {
          freeze(j, agent.offer_source, agent.offer_cost);
          continue;
        }
        const auto& nbrs = neighborhood[static_cast<std::size_t>(j)];
        const auto& costs = known[static_cast<std::size_t>(j)];
        for (std::size_t idx = 0; idx < nbrs.size(); ++idx) {
          const NodeId i = nbrs[idx];
          const double cij = costs[idx];
          if (cij == kInfCost || agent.alpha + 1e-12 < cij) continue;
          if (!agent.sent_tight[idx]) {
            agent.sent_tight[idx] = 1;
            bus.send({MessageType::kTight, j, i, chunk, kInvalidNode, 0.0});
          }
          // Payment toward i's fairness cost, then relay bids. The
          // payment is tracked on the facility side (piggybacked on the
          // bidding traffic; no extra message type in Table II).
          auto& facility = agents[static_cast<std::size_t>(i)];
          const double fi = fairness[static_cast<std::size_t>(i)];
          if (fi != kInfCost && facility.paid + 1e-12 < fi) {
            const double pay =
                std::min(config_.beta_step, fi - facility.paid);
            agent.beta[idx] += pay;
            facility.paid += pay;
          } else {
            agent.gamma[idx] += config_.gamma_step;
            if (!agent.sent_span[idx] &&
                agent.gamma[idx] + 1e-12 >= cij) {
              agent.sent_span[idx] = 1;
              post({MessageType::kSpan, j, i, chunk, kInvalidNode, 0.0});
            }
          }
        }
      }
    }
    total_rounds_ += round;

    if (channel) {
      // Termination watchdog: any live node still bidding at the round
      // bound is force-frozen onto the producer, so the protocol always
      // terminates with every survivor assigned a source.
      for (NodeId v = 0; v < n; ++v) {
        auto& agent = agents[static_cast<std::size_t>(v)];
        if (agent.status == NodeStatus::kActive && channel->alive(v)) {
          agent.status = NodeStatus::kInactive;
          agent.data_source = producer;
          agent.fetch_cost = con(producer, v);
          ++stats_.forced_freezes;
        }
      }
    } else {
      FAIRCACHE_CHECK(
          std::all_of(agents.begin(), agents.end(),
                      [](const Agent& a) {
                        return a.status != NodeStatus::kActive;
                      }),
          "distributed bidding did not converge within the round budget");
    }

    // --- Harvest: ADMIN nodes cache the chunk. An admin that is down at
    // harvest time never completed its proactive fetch and caches
    // nothing. ---
    core::ChunkPlacement placement;
    placement.chunk = chunk;
    placement.solver_rounds = round;
    for (NodeId v = 0; v < n; ++v) {
      if (agents[static_cast<std::size_t>(v)].status == NodeStatus::kAdmin &&
          result.state.can_cache(v, chunk)) {
        if (channel && !channel->alive(v)) continue;
        result.state.add(v, chunk);
        placement.cache_nodes.push_back(v);
      }
    }

    // Record who each node would fetch from; repair sources that point at
    // a casualty (ADMIN-failure recovery: fall back to the best FREEZE
    // offer, else the producer).
    placement.assignment.assign(static_cast<std::size_t>(n), kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      const auto& agent = agents[static_cast<std::size_t>(v)];
      if (v == producer) {
        placement.assignment[static_cast<std::size_t>(v)] = producer;
        continue;
      }
      NodeId src = agent.data_source;
      if (channel) {
        auto usable = [&](NodeId s) {
          return s == producer ||
                 (s != kInvalidNode && channel->alive(s) &&
                  result.state.holds(s, chunk));
        };
        if (!usable(src)) {
          const bool had_source = src != kInvalidNode;
          src = usable(agent.offer_source) ? agent.offer_source : producer;
          if (had_source) ++stats_.repaired_sources;
        }
      }
      placement.assignment[static_cast<std::size_t>(v)] = src;
    }
    result.placements.push_back(std::move(placement));
    stats_ += bus.stats();
    if (channel) channel->flush();  // stale traffic never crosses chunks
  }

  if (channel) {
    // Final repair against the end-of-run liveness mask: data on nodes
    // that are down now is gone, and every surviving node whose source
    // died falls back to the producer.
    result.alive = channel->alive_mask();
    for (NodeId v = 0; v < n; ++v) {
      if (result.alive[static_cast<std::size_t>(v)]) continue;
      const std::vector<metrics::ChunkId> lost = result.state.chunks_on(v);
      for (metrics::ChunkId c : lost) result.state.remove(v, c);
    }
    for (auto& placement : result.placements) {
      auto& nodes = placement.cache_nodes;
      nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                                 [&](NodeId v) {
                                   return !result.alive
                                       [static_cast<std::size_t>(v)];
                                 }),
                  nodes.end());
      for (NodeId v = 0; v < n; ++v) {
        auto& src = placement.assignment[static_cast<std::size_t>(v)];
        if (!result.alive[static_cast<std::size_t>(v)]) {
          src = kInvalidNode;  // casualties consume nothing
          continue;
        }
        if (v == producer) continue;
        const bool ok =
            src == producer ||
            (src != kInvalidNode &&
             result.alive[static_cast<std::size_t>(src)] &&
             result.state.holds(src, placement.chunk));
        if (!ok) {
          src = producer;
          ++stats_.repaired_sources;
        }
      }
    }
    stats_ += channel->stats();
  }

  if (stats_.forced_freezes > 0) {
    protocol_outcome_ = util::Status::resource_exhausted(
        std::to_string(stats_.forced_freezes) +
        " straggler(s) force-frozen at the max_rounds watchdog bound");
  }

  result.runtime_seconds = clock.elapsed_seconds();
  return result;
}

}  // namespace faircache::sim
