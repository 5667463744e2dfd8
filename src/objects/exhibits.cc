#include "src/objects/exhibits.h"

#include "src/common/errors.h"

namespace mpcn {

void SharedQueue::enqueue(ProcessContext& ctx, Value v) {
  auto g = ctx.step();
  std::lock_guard<std::mutex> lk(m_);
  q_.push_back(std::move(v));
}

Value SharedQueue::dequeue(ProcessContext& ctx) {
  auto g = ctx.step();
  std::lock_guard<std::mutex> lk(m_);
  Value v;  // nil when the queue is empty
  if (!q_.empty()) {
    v = std::move(q_.front());
    q_.pop_front();
  }
  return v;
}

void SharedQueue::prefill(Value v) {
  std::lock_guard<std::mutex> lk(m_);
  q_.push_back(std::move(v));
}

void SharedStack::push(ProcessContext& ctx, Value v) {
  auto g = ctx.step();
  std::lock_guard<std::mutex> lk(m_);
  s_.push_back(std::move(v));
}

Value SharedStack::pop(ProcessContext& ctx) {
  auto g = ctx.step();
  std::lock_guard<std::mutex> lk(m_);
  Value v;  // nil when the stack is empty
  if (!s_.empty()) {
    v = std::move(s_.back());
    s_.pop_back();
  }
  return v;
}

QueueConsensus2::QueueConsensus2(ProcessId a, ProcessId b) : a_(a), b_(b) {
  // The queue starts holding the winner token; the first dequeuer wins
  // (initialization is a harness action, not a model step).
  queue_.prefill(Value("winner"));
}

Value QueueConsensus2::propose(ProcessContext& ctx, const Value& v) {
  if (ctx.pid() != a_ && ctx.pid() != b_) {
    throw ProtocolError("QueueConsensus2: caller is not a port");
  }
  // Publish own proposal, then race for the winner token.
  (ctx.pid() == a_ ? proposal_a_ : proposal_b_).write(ctx, v);
  const Value token = queue_.dequeue(ctx);
  if (token.is_string() && token.as_string() == "winner") {
    return v;  // my proposal is the decision
  }
  // Loser (or late): the other process won; adopt its proposal.
  return (ctx.pid() == a_ ? proposal_b_ : proposal_a_).read(ctx);
}

TasConsensus2::TasConsensus2(ProcessId a, ProcessId b) : a_(a), b_(b) {}

Value TasConsensus2::propose(ProcessContext& ctx, const Value& v) {
  if (ctx.pid() != a_ && ctx.pid() != b_) {
    throw ProtocolError("TasConsensus2: caller is not a port");
  }
  (ctx.pid() == a_ ? proposal_a_ : proposal_b_).write(ctx, v);
  if (tas_.test_and_set(ctx)) return v;
  return (ctx.pid() == a_ ? proposal_b_ : proposal_a_).read(ctx);
}

ConsensusTas2::ConsensusTas2(ProcessId a, ProcessId b) : cons_({a, b}) {}

bool ConsensusTas2::test_and_set(ProcessContext& ctx) {
  // Decide which port wins; every port learns the same winner id.
  const Value winner = cons_.propose(ctx, Value(ctx.pid()));
  return winner.as_int() == ctx.pid();
}

Value CasConsensus::propose(ProcessContext& ctx, const Value& v) {
  const Value old = cas_.compare_and_swap(ctx, Value::nil(), v);
  return old.is_nil() ? v : old;
}

}  // namespace mpcn
