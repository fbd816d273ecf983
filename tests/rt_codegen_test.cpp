// Pins the "zero-cost by construction" claim of the Atomics policy seam
// (rt/atomics_policy.hpp): instantiating the rt algorithms with
// StdAtomics must compile to exactly the code the pre-seam untemplated
// classes produced.  The argument is by type identity — the policy's
// member aliases ARE the std:: types, so a BasicFoo<StdAtomics> member
// of type Atomics::atomic<T> is the very same std::atomic<T> member the
// original class had, with the same layout, alignment and noexcept
// surface.  Everything here is a compile-time assertion; the TEST bodies
// only exist so a filter run shows the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <utility>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/mutex/lock_adapters.hpp"
#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/rt/atomic_mutex.hpp"
#include "tfr/rt/atomics_policy.hpp"

namespace tfr {
namespace {

// The policy aliases are the std:: types themselves — no wrapper class,
// so there is nothing a wrapper could cost.
static_assert(std::is_same_v<rt::StdAtomics::atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<rt::StdAtomics::atomic<std::uint32_t>,
                             std::atomic<std::uint32_t>>);
static_assert(
    std::is_same_v<rt::StdAtomics::counter<std::uint64_t>,
                   std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<rt::StdAtomics::thread, std::thread>);
static_assert(std::is_same_v<rt::StdAtomics::duration, rt::Nanos>);

// The production names are aliases of the StdAtomics instantiations —
// the same types, not parallel implementations.
static_assert(
    std::is_same_v<rt::AtomicMutex, rt::BasicAtomicMutex<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::EventCount, rt::BasicEventCount<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::FischerRt, rt::BasicFischerRt<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::TfrMutexRt,
                             rt::BasicTfrMutexRt<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::AtomicMutexLock,
                             rt::BasicAtomicMutexLock<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::AtomicRegister<int>,
                             rt::BasicAtomicRegister<int, rt::StdAtomics>>);
static_assert(std::is_same_v<rt::RtConsensus,
                             rt::BasicRtConsensus<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::RtMultiConsensus,
                             rt::BasicRtMultiConsensus<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::RtElection, rt::BasicRtElection<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::RtTestAndSet,
                             rt::BasicRtTestAndSet<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::RtRenaming, rt::BasicRtRenaming<rt::StdAtomics>>);
static_assert(std::is_same_v<rt::RtSetConsensus,
                             rt::BasicRtSetConsensus<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::RtLongLivedTestAndSet,
                   rt::BasicRtLongLivedTestAndSet<rt::StdAtomics>>);
static_assert(
    std::is_same_v<rt::RtUniversal, rt::BasicRtUniversal<rt::StdAtomics>>);

// Algorithm 1's register arrays: a default cell is the production
// register, and RtConsensus keeps the footprint the pre-seam class had
// (config, three 4096-segment spines with their counters, decide).
static_assert(
    std::is_same_v<decltype(std::declval<rt::RegisterArray<int>&>().at(0)),
                   rt::AtomicRegister<int>&>);
static_assert(sizeof(rt::RtConsensus) == 98376);

// Layout: the futex-class primitives stay one 4-byte word (also
// static_asserted at their definitions), standard-layout, and no more
// aligned than the word itself.
static_assert(sizeof(rt::AtomicMutex) == 4);
static_assert(sizeof(rt::EventCount) == 4);
static_assert(alignof(rt::AtomicMutex) == alignof(std::atomic<std::uint32_t>));
static_assert(std::is_standard_layout_v<rt::AtomicMutex>);
static_assert(std::is_standard_layout_v<rt::EventCount>);
static_assert(sizeof(rt::AtomicRegister<int>) == sizeof(std::atomic<int>));

// noexcept surface: with kNoexceptOps the production lock operations are
// nothrow — the property the pre-seam classes declared, and the one the
// shim policy must be able to turn off (it unwinds via AbortExecution).
static_assert(rt::StdAtomics::kNoexceptOps);
static_assert(noexcept(std::declval<rt::AtomicMutex&>().lock()));
static_assert(noexcept(std::declval<rt::AtomicMutex&>().try_lock()));
static_assert(noexcept(std::declval<rt::AtomicMutex&>().unlock()));
static_assert(noexcept(std::declval<rt::EventCount&>().advance()));
static_assert(noexcept(std::declval<const rt::EventCount&>().epoch()));

// Spinning is real on hardware, disabled under the checker.
static_assert(rt::StdAtomics::kSpinBudget == rt::kDefaultSpinBudget);

TEST(RtCodegen, StdPolicyIsZeroCostByConstruction) {
  // All assertions above are compile-time; reaching here is the pass.
  SUCCEED();
}

}  // namespace
}  // namespace tfr
