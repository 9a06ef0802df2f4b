#include "dd/graph.h"

namespace rcfg::dd {

OperatorBase::OperatorBase(Graph& graph, std::string name)
    : graph_(graph), name_(std::move(name)) {}

void Graph::commit() {
  in_commit_ = true;
  commit_flush_counter_ = 0;
  commit_flushes_.assign(ops_.size(), 0);

  // On divergence the graph's operator state is partially updated and the
  // instance must be discarded; make sure bookkeeping reflects that.
  struct CommitGuard {
    Graph& graph;
    ~CommitGuard() {
      graph.in_commit_ = false;
      graph.ready_.clear();
      graph.last_commit_flushes_ = graph.commit_flush_counter_;
    }
  } guard{*this};

  while (!ready_.empty()) {
    const std::uint32_t id = *ready_.begin();
    ready_.erase(ready_.begin());
    OperatorBase& op = *ops_[id];
    ++op.flushes_;
    ++commit_flush_counter_;
    if (++commit_flushes_[id] > kMaxOperatorFlushes) {
      throw NonterminationError("dataflow commit did not quiesce: operator '" + op.name() +
                                "' flushed more than " + std::to_string(kMaxOperatorFlushes) +
                                " times (" + std::to_string(commit_flush_counter_) +
                                " flushes in this commit)");
    }
    op.flush();
  }

  ++commits_;
}

GraphSnapshot Graph::snapshot() const {
  if (in_commit_) throw std::logic_error("Graph::snapshot: called during commit()");
  if (!ready_.empty()) {
    throw std::logic_error("Graph::snapshot: pending work scheduled; commit() first");
  }
  GraphSnapshot snap;
  snap.op_state.reserve(ops_.size());
  for (const auto& op : ops_) snap.op_state.push_back(op->save_state());
  snap.commits = commits_;
  return snap;
}

void Graph::restore(const GraphSnapshot& snap) {
  if (in_commit_) throw std::logic_error("Graph::restore: called during commit()");
  if (snap.op_state.size() != ops_.size()) {
    throw std::logic_error("Graph::restore: snapshot has " +
                           std::to_string(snap.op_state.size()) + " operators, graph has " +
                           std::to_string(ops_.size()) + " (different program?)");
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) ops_[i]->load_state(snap.op_state[i].get());
  ready_.clear();
  commits_ = snap.commits;
  last_commit_flushes_ = 0;
}

}  // namespace rcfg::dd
