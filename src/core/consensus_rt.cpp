#include "tfr/core/consensus_rt.hpp"

namespace tfr::rt {

// The production codegen: every target linking tfr_core shares this
// StdAtomics instantiation (the header's extern template declaration).
template class BasicRtConsensus<StdAtomics>;

}  // namespace tfr::rt
