/**
 * @file
 * Pins the allocation-free clean-read invariant: fault-free reads
 * borrow the stored row by reference and never materialize a row copy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/twod_array.hh"
#include "../oracles/twod_parity.hh"

namespace tdc
{
namespace
{

TwoDimConfig
smallConfig()
{
    TwoDimConfig cfg = TwoDimConfig::l1Default();
    cfg.dataRows = 32;
    cfg.verticalParityRows = 8;
    return cfg;
}

BitVector
randomWord(Rng &rng, size_t nbits)
{
    BitVector v(nbits);
    for (size_t i = 0; i < nbits; ++i)
        v.set(i, rng.nextBool());
    return v;
}

TEST(TwoDimFastPath, CleanReadsBorrowAndNeverCopyRows)
{
    TwoDimArray arr(smallConfig());
    Rng rng(7);
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, randomWord(rng, arr.dataBits()));

    const TwoDimStats before = arr.stats();
    uint64_t reads = 0;
    for (int round = 0; round < 3; ++round) {
        for (size_t r = 0; r < arr.rows(); ++r) {
            for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
                ASSERT_TRUE(arr.readWord(r, s).ok());
                ++reads;
            }
        }
    }
    // The fault-free bank serves every read by borrowing the stored
    // row: zero row copies is the fast-path contract.
    EXPECT_EQ(arr.stats().rowBorrows - before.rowBorrows, reads);
    EXPECT_EQ(arr.stats().rowCopies - before.rowCopies, 0u);
    EXPECT_EQ(arr.stats().reads - before.reads, reads);
}

TEST(TwoDimFastPath, StuckRowsFallBackToCopies)
{
    TwoDimArray arr(smallConfig());
    Rng rng(8);
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            arr.writeWord(r, s, randomWord(rng, arr.dataBits()));

    // Pin one cell of row 3 to its stored value: the read data stays
    // clean, but the overlay forces the copy path for that row only.
    const bool stored = arr.cells().readBit(3, 0);
    arr.cells().addStuckAt(3, 0, stored);

    const TwoDimStats stuck = arr.stats();
    for (size_t r = 0; r < arr.rows(); ++r)
        for (size_t s = 0; s < arr.wordsPerRow(); ++s)
            ASSERT_TRUE(arr.readWord(r, s).ok());

    EXPECT_EQ(arr.stats().rowCopies - stuck.rowCopies, arr.wordsPerRow());
    EXPECT_EQ(arr.stats().rowBorrows - stuck.rowBorrows,
              (arr.rows() - 1) * arr.wordsPerRow());

    // Clearing the fault restores the all-borrow regime.
    arr.cells().clearFault(3, 0);
    const TwoDimStats cleared = arr.stats();
    for (size_t s = 0; s < arr.wordsPerRow(); ++s)
        ASSERT_TRUE(arr.readWord(3, s).ok());
    EXPECT_EQ(arr.stats().rowCopies - cleared.rowCopies, 0u);
    EXPECT_EQ(arr.stats().rowBorrows - cleared.rowBorrows,
              arr.wordsPerRow());
}

TEST(TwoDimFastPath, WritesKeepVerticalParityConsistent)
{
    // The in-place delta fold must leave parity identical to a full
    // rebuild after any write pattern, including rewrites of the same
    // slot and writes of identical data (zero delta).
    TwoDimArray arr(smallConfig());
    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t r = rng.nextBelow(arr.rows());
        const size_t s = rng.nextBelow(arr.wordsPerRow());
        BitVector w = randomWord(rng, arr.dataBits());
        arr.writeWord(r, s, w);
        if (trial % 3 == 0)
            arr.writeWord(r, s, w); // identical rewrite: delta == 0
    }
    EXPECT_TRUE(oracle::verifyParity(arr));
}

} // namespace
} // namespace tdc
