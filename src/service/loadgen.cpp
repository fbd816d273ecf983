#include "tfr/service/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "tfr/common/contracts.hpp"

namespace tfr::service {

namespace {

/// SplitMix64 — the same mixing the NetAdversary and AbdClient jitter use,
/// so routing and retry jitter are pure functions of their inputs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

LoadGen::LoadGen(LoadConfig config, std::vector<BoundedQueue*> queues)
    : cfg_(config), queues_(std::move(queues)) {
  TFR_REQUIRE(cfg_.tick >= 1);
}

int LoadGen::route(std::uint64_t session) const {
  const std::uint64_t h = mix64(session ^ (cfg_.route_seed << 32));
  return static_cast<int>(h % queues_.size());
}

sim::Duration LoadGen::backoff_for(std::uint64_t session, int attempt) const {
  const msg::RetryPolicy& p = cfg_.retry;
  double pause = static_cast<double>(p.backoff);
  for (int i = 1; i < attempt; ++i) pause *= p.backoff_growth;
  if (p.max_backoff > 0)
    pause = std::min(pause, static_cast<double>(p.max_backoff));
  auto wait = static_cast<sim::Duration>(pause);
  if (p.jitter > 0) {
    const std::uint64_t h =
        mix64(session * 0x100000001b3ULL + static_cast<std::uint64_t>(attempt));
    wait += static_cast<sim::Duration>(
        h % static_cast<std::uint64_t>(p.jitter + 1));
  }
  return wait;
}

void LoadGen::offer(sim::Env& env, Request request, int shard) {
  ++offered_;
  ++request.attempts;
  const sim::Time now = env.now();
  const auto verdict =
      queues_[static_cast<std::size_t>(shard)]->try_push(request, now);
  if (!verdict.has_value()) {
    ++admitted_;
    return;
  }
  ++rejected_;
  if (request.attempts >= cfg_.max_attempts) {
    ++shed_;
    return;
  }
  // Respect the server's retry-after hint, but never come back faster
  // than the client's own exponential backoff for this attempt.
  const sim::Duration pause = std::max(
      verdict->retry_after, backoff_for(request.session, request.attempts));
  schedule_retry(now, PendingRetry{now + pause, request, shard});
  ++pending_retries_;
  max_retry_heap_ = std::max(max_retry_heap_, pending_retries_);
}

void LoadGen::schedule_retry(sim::Time now, const PendingRetry& retry) {
  if (retry.due <= now) {
    due_now_.push_back(retry);
    std::push_heap(due_now_.begin(), due_now_.end(),
                   std::greater<PendingRetry>{});
    return;
  }
  // Wakes fall every `tick` from now (the current wake, head_): the k-th
  // is the first at or after the due time.
  const auto wake = static_cast<std::size_t>(
      (retry.due - now + cfg_.tick - 1) / cfg_.tick);
  if (wake >= calendar_.size()) {
    // Grow to a power of two, unrolling the ring so head_ becomes 0.
    std::size_t size = calendar_.empty() ? 16 : calendar_.size();
    while (size <= wake) size *= 2;
    std::vector<std::vector<PendingRetry>> grown(size);
    for (std::size_t k = 0; k < calendar_.size(); ++k)
      grown[k].swap(calendar_[(head_ + k) % calendar_.size()]);
    calendar_.swap(grown);
    head_ = 0;
  }
  calendar_[(head_ + wake) % calendar_.size()].push_back(retry);
}

void LoadGen::offer_due_retries(sim::Env& env) {
  const std::greater<PendingRetry> later;
  if (!calendar_.empty()) {
    head_ = (head_ + 1) % calendar_.size();
    // Swap the bucket out first: offers may grow (and move) the calendar.
    draining_.swap(calendar_[head_]);
    std::sort(draining_.begin(), draining_.end(),
              [](const PendingRetry& x, const PendingRetry& y) {
                return y > x;
              });
  }
  std::size_t next = 0;
  while (next < draining_.size() || !due_now_.empty()) {
    PendingRetry r;
    if (due_now_.empty() ||
        (next < draining_.size() && later(due_now_.front(), draining_[next]))) {
      r = draining_[next++];
    } else {
      std::pop_heap(due_now_.begin(), due_now_.end(), later);
      r = due_now_.back();
      due_now_.pop_back();
    }
    --pending_retries_;
    offer(env, r.request, r.shard);
  }
  draining_.clear();
}

void LoadGen::emit_counters(sim::Env& env) {
  sim::Simulation& s = env.sim();
  if (s.trace_sink() == nullptr) return;
  if (label_offered_ == 0) label_offered_ = s.trace_label("svc.offered");
  if (label_rejected_ == 0) label_rejected_ = s.trace_label("svc.rejected");
  if (offered_ != last_emitted_offered_) {
    s.emit({env.now(), env.pid(), obs::EventKind::kCounter,
            static_cast<std::int64_t>(offered_),
            static_cast<std::int64_t>(admitted_), label_offered_});
    last_emitted_offered_ = offered_;
  }
  if (rejected_ != last_emitted_rejected_) {
    s.emit({env.now(), env.pid(), obs::EventKind::kCounter,
            static_cast<std::int64_t>(rejected_),
            static_cast<std::int64_t>(shed_), label_rejected_});
    last_emitted_rejected_ = rejected_;
  }
}

sim::Process LoadGen::run(sim::Env env) {
  double carry = 0.0;
  std::uint64_t next_session = 0;
  while (next_session < cfg_.sessions || pending_retries_ > 0) {
    co_await env.delay(cfg_.tick);
    const sim::Time now = env.now();
    // Due retries first: they have been waiting longer than any fresh
    // arrival this tick.
    offer_due_retries(env);
    if (next_session < cfg_.sessions) {
      // Open-loop rate is per sim tick; one wake covers `tick` of them.
      carry += cfg_.arrivals_per_tick * static_cast<double>(cfg_.tick);
      auto batch = static_cast<std::uint64_t>(carry);
      carry -= static_cast<double>(batch);
      batch = std::min(batch, cfg_.sessions - next_session);
      for (std::uint64_t i = 0; i < batch; ++i) {
        Request request;
        request.session = next_session++;
        request.first_offered = now;
        ++started_;
        offer(env, request, route(request.session));
      }
    }
    emit_counters(env);
  }
  finished_ = true;
}

}  // namespace tfr::service
