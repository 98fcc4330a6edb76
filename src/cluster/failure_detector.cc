#include "src/cluster/failure_detector.h"

namespace ss {
namespace cluster {

const char* NodeHealthName(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy:
      return "healthy";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDown:
      return "down";
  }
  return "unknown";
}

FailureDetector::FailureDetector(MetricRegistry* metrics) {
  if (metrics != nullptr) {
    entered_healthy_ = &metrics->counter("cluster.fd.healthy");
    entered_suspect_ = &metrics->counter("cluster.fd.suspect");
    entered_down_ = &metrics->counter("cluster.fd.down");
  }
}

void FailureDetector::AddNode(int node) { nodes_.emplace(node, NodeState{}); }

void FailureDetector::RemoveNode(int node) { nodes_.erase(node); }

std::vector<FailureDetector::Transition> FailureDetector::Observe(int node,
                                                                  bool heartbeat_ok) {
  std::vector<Transition> out;
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return out;
  }
  NodeState& state = it->second;
  const NodeHealth before = state.health;
  if (heartbeat_ok) {
    state.misses = 0;
    state.health = NodeHealth::kHealthy;
  } else {
    ++state.misses;
    if (state.misses >= kDownAfterMisses) {
      state.health = NodeHealth::kDown;
    } else if (state.misses >= kSuspectAfterMisses) {
      state.health = NodeHealth::kSuspect;
    }
  }
  if (state.health != before) {
    out.push_back(Transition{node, before, state.health});
    Counter* entered = nullptr;
    switch (state.health) {
      case NodeHealth::kHealthy:
        entered = entered_healthy_;
        break;
      case NodeHealth::kSuspect:
        entered = entered_suspect_;
        break;
      case NodeHealth::kDown:
        entered = entered_down_;
        break;
    }
    if (entered != nullptr) {
      entered->Increment();
    }
  }
  return out;
}

NodeHealth FailureDetector::Health(int node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? NodeHealth::kDown : it->second.health;
}

uint32_t FailureDetector::Misses(int node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.misses;
}

std::vector<int> FailureDetector::Nodes() const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const auto& [node, state] : nodes_) {
    out.push_back(node);
  }
  return out;
}

}  // namespace cluster
}  // namespace ss
