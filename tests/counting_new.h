// A global operator new that counts every heap allocation in the test
// binary it is linked into, so tests can assert that a hot path makes
// none. The replacements live in counting_new.cc, their own translation
// unit: a caller never sees that operator delete frees with std::free,
// so GCC's -Wmismatched-new-delete has no new/free pair to flag.
#pragma once

#include <cstdint>

namespace hydra::test_support {

/// Heap allocations made so far by any thread.
std::uint64_t heap_allocs();

}  // namespace hydra::test_support
