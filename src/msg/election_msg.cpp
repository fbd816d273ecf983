#include "tfr/msg/election_msg.hpp"

#include <algorithm>

#include "tfr/common/contracts.hpp"

namespace tfr::msg {

TimedElection::TimedElection(Network& net, int n, sim::Duration wait)
    : net_(&net), n_(n), wait_(wait) {
  TFR_REQUIRE(n >= 1);
  TFR_REQUIRE(wait >= 1);
  monitor_.throw_on_violation(false);  // violations are measured, not fatal
}

sim::Process TimedElection::participant(sim::Env env, int node) {
  monitor_.set_input(node, node);
  // Announce ourselves to everyone (including ourselves, uniformly).
  Message hello;
  hello.type = kHello;
  hello.value = node;
  co_await net_->multicast(env, node, 0, n_, hello);
  // Wait out the assumed delivery bound.
  const sim::Time deadline = env.now() + wait_;
  co_await env.delay(wait_);
  (void)deadline;
  // Drain whatever has arrived; elect the minimum id heard.
  int leader = node;
  for (;;) {
    const auto m = co_await net_->try_recv(env, node);
    if (!m.has_value()) break;
    if (m->type == kHello)
      leader = std::min(leader, static_cast<int>(m->value));
  }
  monitor_.on_decide(node, leader, env.now());
}

MsgElection::MsgElection(Network& net, int n, sim::Duration delta,
                         RetryPolicy policy)
    : net_(&net), n_(n), delta_(delta), policy_(policy) {
  TFR_REQUIRE(n >= 1 && n <= (1 << kIdBits));
  bits_.reserve(kIdBits);
  for (int k = 0; k < kIdBits; ++k)
    bits_.push_back(
        std::make_unique<MsgConsensus>(net, n, delta, bit_base(k), policy));
}

sim::Task<int> MsgElection::elect(sim::Env env, AbdClient& client, int id) {
  TFR_REQUIRE(id >= 0 && id < (1 << kIdBits));
  int candidate = id;
  for (int k = 0; k < kIdBits; ++k) {
    const int b = (candidate >> k) & 1;
    // Publish the witness before proposing its bit (cf.
    // rt::BasicRtMultiConsensus).
    co_await client.write(env, witness_reg(k, b), candidate + 1);
    const int decided = co_await bits_[static_cast<std::size_t>(k)]->propose(
        env, client, b);
    if (decided != b) {
      const std::int64_t adopted =
          co_await client.read(env, witness_reg(k, decided));
      TFR_INVARIANT(adopted >= 1);
      const int value = static_cast<int>(adopted - 1);
      TFR_INVARIANT(((value ^ candidate) & ((1 << k) - 1)) == 0);
      TFR_INVARIANT(((value >> k) & 1) == decided);
      candidate = value;
    }
  }
  co_return candidate;
}

sim::Process MsgElection::participant(sim::Env env, int node) {
  monitor_.set_input(node, node);
  AbdClient client(*net_, node, n_, policy_);
  const int leader = co_await elect(env, client, node);
  monitor_.on_decide(node, leader, env.now());
}

}  // namespace tfr::msg
