/**
 * @file
 * Seed-domain separation of the per-event injection streams: fault
 * events must draw from their own counter namespace, never from the
 * streams other per-event consumers of the same campaign seed count
 * through.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "array/fault.hh"
#include "array/memory_array.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

#include "../array/changed_cells.hh"

namespace tdc
{
namespace
{

TEST(SeedDomain, InjectionStreamsLiveInTheirOwnSeedDomain)
{
    // Regression for the seed-stream collision bug class: per-event
    // fault injection (the lifetime engine, the cache service's fault
    // pressure) used to draw from the *un-domained* stream
    // shardSeed(seed, i) — the very stream any other per-event
    // consumer of the same campaign seed (scrub scheduling, service
    // traffic) naturally counts through, so "independent" random
    // choices were byte-identical. Events must come from the
    // injection-domain namespace instead.
    const uint64_t seed = 0xD00D;
    for (uint64_t i = 0; i < 64; ++i) {
        EXPECT_NE(shardSeed(seed, kSeedDomainInjection, i),
                  shardSeed(seed, i))
            << "event " << i << " collides with the legacy stream";
        EXPECT_NE(shardSeed(seed, kSeedDomainInjection, i),
                  shardSeed(seed, kSeedDomainScrub, i))
            << "event " << i << " collides with the scrub domain";
    }

    // The two namespaces really pick different cells for the same
    // single-bit event on a bank-sized array (32 rows of four
    // interleaved 72-bit codewords).
    const MemoryArray blank(32, 288);
    MemoryArray domain = blank, legacy = blank;
    const FaultModel single = FaultModel::singleBit();
    Rng domain_rng(shardSeed(seed, kSeedDomainInjection, 0));
    FaultInjector(domain_rng).inject(domain, single);
    Rng legacy_rng(shardSeed(seed, 0));
    FaultInjector(legacy_rng).inject(legacy, single);
    EXPECT_NE(changedCells(blank, domain), changedCells(blank, legacy))
        << "injection still draws from the legacy counter namespace";
}

} // namespace
} // namespace tdc
