#include "runtime/plan.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace ss::runtime {

namespace {

std::string replica_name(const std::string& base, const char* role, int index = -1) {
  std::string name = base + "." + role;
  if (index >= 0) name += "[" + std::to_string(index) + "]";
  return name;
}

}  // namespace

ActorGraph ActorGraph::build(const Topology& t, const Deployment& deployment) {
  const std::size_t n = t.num_operators();
  ActorGraph g;
  g.entry.assign(n, -1);
  g.exit.assign(n, -1);
  g.group_of.assign(n, -1);

  // --- validate and index fusion groups -------------------------------
  for (std::size_t f = 0; f < deployment.fusions.size(); ++f) {
    const FusionSpec& spec = deployment.fusions[f];
    // The meta actor executes items from whatever member they target
    // (Alg. 4 generalized to the Fig. 2 semantics), so the relaxed
    // multi-entry legality is the right runtime-side check; the stricter
    // single-front-end rule only gates the §3.3 cost model.
    const std::string why = check_fusion_legal_multi(t, spec);
    require(why.empty(), "ActorGraph: illegal fusion group: ", why);
    for (OpIndex m : spec.members) {
      require(g.group_of[m] == -1, "ActorGraph: operator '", t.op(m).name,
              "' belongs to two fusion groups");
      require(deployment.replication.replicas_of(m) == 1, "ActorGraph: fused operator '",
              t.op(m).name, "' cannot be replicated");
      g.group_of[m] = static_cast<int>(f);
    }
  }
  require(deployment.replication.replicas_of(t.source()) == 1,
          "ActorGraph: the source cannot be replicated");

  // --- create actors ----------------------------------------------------
  // Fusion groups first (one meta actor each), then the remaining ops.
  std::vector<int> meta_actor(deployment.fusions.size(), -1);
  for (std::size_t f = 0; f < deployment.fusions.size(); ++f) {
    const FusionSpec& spec = deployment.fusions[f];
    ActorSpec actor;
    actor.kind = ActorKind::kMeta;
    // Members in topological order so on_finish flushes upstream-first.
    std::vector<OpIndex> members = spec.members;
    std::vector<std::size_t> position(n, 0);
    for (std::size_t i = 0; i < t.topological_order().size(); ++i) {
      position[t.topological_order()[i]] = i;
    }
    std::sort(members.begin(), members.end(),
              [&](OpIndex a, OpIndex b) { return position[a] < position[b]; });
    actor.members = members;
    actor.op = members.front();
    actor.name = spec.fused_name.empty() ? replica_name(t.op(members.front()).name, "meta")
                                         : spec.fused_name;
    meta_actor[f] = static_cast<int>(g.actors.size());
    g.actors.push_back(std::move(actor));
    for (OpIndex m : members) {
      g.entry[m] = meta_actor[f];
      g.exit[m] = meta_actor[f];
    }
  }

  for (OpIndex i = 0; i < n; ++i) {
    if (g.group_of[i] != -1) continue;
    const int replicas = deployment.replication.replicas_of(i);
    if (i == t.source()) {
      ActorSpec actor;
      actor.kind = ActorKind::kSource;
      actor.op = i;
      actor.name = t.op(i).name;
      g.source_actor = static_cast<int>(g.actors.size());
      g.entry[i] = g.exit[i] = g.source_actor;
      g.actors.push_back(std::move(actor));
      continue;
    }
    if (replicas == 1) {
      ActorSpec actor;
      actor.kind = ActorKind::kWorker;
      actor.op = i;
      actor.name = t.op(i).name;
      g.entry[i] = g.exit[i] = static_cast<int>(g.actors.size());
      g.actors.push_back(std::move(actor));
      continue;
    }
    // Fission: emitter -> replicas -> collector (paper §4.2).
    ActorSpec emitter;
    emitter.kind = ActorKind::kEmitter;
    emitter.op = i;
    emitter.name = replica_name(t.op(i).name, "emitter");
    const int emitter_id = static_cast<int>(g.actors.size());
    g.actors.push_back(std::move(emitter));

    std::vector<int> replica_ids;
    for (int r = 0; r < replicas; ++r) {
      ActorSpec replica;
      replica.kind = ActorKind::kReplica;
      replica.op = i;
      replica.replica = r;
      replica.name = replica_name(t.op(i).name, "replica", r);
      replica_ids.push_back(static_cast<int>(g.actors.size()));
      g.actors.push_back(std::move(replica));
    }

    ActorSpec collector;
    collector.kind = ActorKind::kCollector;
    collector.op = i;
    collector.name = replica_name(t.op(i).name, "collector");
    const int collector_id = static_cast<int>(g.actors.size());
    g.actors.push_back(std::move(collector));

    // Internal channels.
    for (int rid : replica_ids) {
      g.actors[static_cast<std::size_t>(emitter_id)].downstream.push_back(rid);
      g.actors[static_cast<std::size_t>(rid)].incoming_channels += 1;
      g.actors[static_cast<std::size_t>(rid)].downstream.push_back(collector_id);
      g.actors[static_cast<std::size_t>(collector_id)].incoming_channels += 1;
    }
    g.entry[i] = emitter_id;
    g.exit[i] = collector_id;
  }

  // --- channels for logical edges --------------------------------------
  for (const Edge& e : t.edges()) {
    if (g.group_of[e.from] != -1 && g.group_of[e.from] == g.group_of[e.to]) {
      continue;  // internal to a fusion group: handled inside the meta actor
    }
    const int from_actor = g.exit[e.from];
    const int to_actor = g.entry[e.to];
    g.actors[static_cast<std::size_t>(from_actor)].downstream.push_back(to_actor);
    g.actors[static_cast<std::size_t>(to_actor)].incoming_channels += 1;
  }

  return g;
}

}  // namespace ss::runtime
