/**
 * @file
 * Test guard that turns the process-wide result cache's disk tier off
 * for its lifetime. $TDC_CACHE_DIR may point the cache at a warm
 * directory; a test that must exercise the CMP simulator (rather than
 * replay stored runs) holds one of these and clears the memory tier
 * between the runs it compares.
 */

#ifndef TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH
#define TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH

#include <string>

#include "reliability/result_cache.hh"

namespace tdc
{

struct MemoryOnlyCache
{
    MemoryOnlyCache() { resultCache().setDirectory(""); }
    ~MemoryOnlyCache() { resultCache().setDirectory(saved); }
    std::string saved = resultCache().directory();
};

} // namespace tdc

#endif // TDC_TESTS_CPU_MEMORY_ONLY_CACHE_HH
