/**
 * @file
 * The SymbolRsCode SSC-DSD contract, differential-pinned against its
 * symbol-serial naive oracle (the PR 2-3 pattern at symbol level):
 *  - encode produces zero-syndrome words and round-trips data;
 *  - EVERY single-symbol error (all positions x all values at b=4) is
 *    corrected back to the exact transmitted word;
 *  - every double-symbol error is detected, never miscorrected;
 *  - on random beyond-capacity garbage the fast decoder and the naive
 *    trial-patch oracle agree exactly (status and corrections);
 *  - erasure mode corrects the erased symbol plus one extra error.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "ecc/reed_solomon.hh"
#include "../oracles/rs_naive.hh"

namespace tdc
{
namespace
{

std::vector<uint32_t>
randomCodeword(const SymbolRsCode &rs, Rng &rng)
{
    std::vector<uint32_t> word(rs.codeSymbols(), 0);
    for (size_t i = SymbolRsCode::kCheckSymbols; i < word.size(); ++i)
        word[i] = uint32_t(rng.nextBelow(rs.field().size()));
    rs.encode(word);
    return word;
}

TEST(SymbolRs, EncodeYieldsZeroSyndromes)
{
    Rng rng(1);
    for (unsigned b : {4u, 8u}) {
        const SymbolRsCode rs(b, b == 4 ? 12 : 8);
        for (int i = 0; i < 50; ++i)
            EXPECT_TRUE(
                oracle::syndromeCleanNaive(rs, randomCodeword(rs, rng)));
    }
}

TEST(SymbolRs, EncodePreservesDataSymbols)
{
    const SymbolRsCode rs(4, 12);
    Rng rng(2);
    std::vector<uint32_t> word(rs.codeSymbols(), 0);
    for (size_t i = SymbolRsCode::kCheckSymbols; i < word.size(); ++i)
        word[i] = uint32_t(rng.nextBelow(16));
    const std::vector<uint32_t> data = word;
    rs.encode(word);
    for (size_t i = SymbolRsCode::kCheckSymbols; i < word.size(); ++i)
        EXPECT_EQ(word[i], data[i]);
}

TEST(SymbolRs, CtorRejectsOversizedAndEmptyCodes)
{
    EXPECT_THROW(SymbolRsCode(4, 13), std::invalid_argument); // n=16>15
    EXPECT_THROW(SymbolRsCode(4, 0), std::invalid_argument);
    EXPECT_NO_THROW(SymbolRsCode(4, 12));
    EXPECT_NO_THROW(SymbolRsCode(8, 252)); // n = 255
}

TEST(SymbolRs, ExhaustiveSingleSymbolCorrectionAtB4)
{
    const SymbolRsCode rs(4, 12);
    Rng rng(3);
    const std::vector<uint32_t> golden = randomCodeword(rs, rng);
    for (size_t pos = 0; pos < rs.codeSymbols(); ++pos) {
        for (uint32_t e = 1; e < rs.field().size(); ++e) {
            std::vector<uint32_t> word = golden;
            word[pos] ^= e;
            const SymbolDecodeResult res = rs.decode(word);
            ASSERT_TRUE(res.corrected()) << "pos " << pos << " e " << e;
            ASSERT_EQ(word, golden) << "pos " << pos << " e " << e;
            ASSERT_EQ(res.corrections.size(), 1u);
            EXPECT_EQ(res.corrections[0].first, pos);
            EXPECT_EQ(res.corrections[0].second, e);
        }
    }
}

TEST(SymbolRs, ExhaustiveSingleSymbolCorrectionAtB8)
{
    const SymbolRsCode rs(8, 8);
    Rng rng(4);
    const std::vector<uint32_t> golden = randomCodeword(rs, rng);
    for (size_t pos = 0; pos < rs.codeSymbols(); ++pos) {
        for (uint32_t e = 1; e < rs.field().size(); ++e) {
            std::vector<uint32_t> word = golden;
            word[pos] ^= e;
            ASSERT_TRUE(rs.decode(word).corrected())
                << "pos " << pos << " e " << e;
            ASSERT_EQ(word, golden) << "pos " << pos << " e " << e;
        }
    }
}

TEST(SymbolRs, EveryDoubleSymbolErrorIsDetectedAtB4)
{
    const SymbolRsCode rs(4, 12);
    Rng rng(5);
    const std::vector<uint32_t> golden = randomCodeword(rs, rng);
    for (size_t p = 0; p < rs.codeSymbols(); ++p) {
        for (size_t q = p + 1; q < rs.codeSymbols(); ++q) {
            for (uint32_t e1 = 1; e1 < 16; ++e1) {
                for (uint32_t e2 = 1; e2 < 16; ++e2) {
                    std::vector<uint32_t> word = golden;
                    word[p] ^= e1;
                    word[q] ^= e2;
                    ASSERT_TRUE(rs.decode(word).uncorrectable())
                        << p << "," << q << " e " << e1 << "," << e2;
                }
            }
        }
    }
}

TEST(SymbolRs, NaiveOracleAgreesOnCleanSingleAndDouble)
{
    for (unsigned b : {4u, 8u}) {
        const SymbolRsCode rs(b, b == 4 ? 12 : 8);
        Rng rng(6 + b);
        for (int i = 0; i < 30; ++i) {
            std::vector<uint32_t> word = randomCodeword(rs, rng);
            const size_t weight = rng.nextBelow(3); // 0, 1 or 2 errors
            std::vector<size_t> touched;
            while (touched.size() < weight) {
                const size_t pos = rng.nextBelow(rs.codeSymbols());
                bool seen = false;
                for (size_t t : touched)
                    seen |= t == pos;
                if (seen)
                    continue;
                word[pos] ^= uint32_t(rng.nextBelow(rs.field().size() - 1)) + 1;
                touched.push_back(pos);
            }
            std::vector<uint32_t> fast_word = word, naive_word = word;
            const SymbolDecodeResult fast = rs.decode(fast_word);
            const SymbolDecodeResult naive =
                oracle::decodeNaive(rs, naive_word);
            ASSERT_EQ(fast.status, naive.status) << "weight " << weight;
            ASSERT_EQ(fast_word, naive_word);
            ASSERT_EQ(fast.corrections, naive.corrections);
        }
    }
}

TEST(SymbolRs, NaiveOracleAgreesBeyondCapacity)
{
    // Random garbage words: mostly weight >= 3 patterns. The fast
    // decoder claims a correction exactly when a single-symbol patch
    // explains the syndromes -- which is precisely what the oracle
    // tests by trial-patching, so status AND patch must agree.
    for (unsigned b : {4u, 8u}) {
        const SymbolRsCode rs(b, b == 4 ? 12 : 8);
        Rng rng(100 + b);
        int corrected = 0, detected = 0;
        for (int i = 0; i < 300; ++i) {
            std::vector<uint32_t> word(rs.codeSymbols());
            for (uint32_t &sym : word)
                sym = uint32_t(rng.nextBelow(rs.field().size()));
            std::vector<uint32_t> fast_word = word, naive_word = word;
            const SymbolDecodeResult fast = rs.decode(fast_word);
            const SymbolDecodeResult naive =
                oracle::decodeNaive(rs, naive_word);
            ASSERT_EQ(fast.status, naive.status) << "word " << i;
            ASSERT_EQ(fast_word, naive_word) << "word " << i;
            ASSERT_EQ(fast.corrections, naive.corrections) << "word " << i;
            corrected += fast.corrected() ? 1 : 0;
            detected += fast.uncorrectable() ? 1 : 0;
        }
        // Random words should exercise both outcomes.
        EXPECT_GT(detected, 0) << "b=" << b;
        EXPECT_GT(corrected + detected, 250) << "b=" << b;
    }
}

TEST(SymbolRs, ErasureDecodeCorrectsDeadSymbolPlusOneError)
{
    const SymbolRsCode rs(4, 12);
    Rng rng(7);
    const std::vector<uint32_t> golden = randomCodeword(rs, rng);
    for (size_t dead = 0; dead < rs.codeSymbols(); ++dead) {
        // Erased symbol corrupted, plus one error somewhere else.
        for (size_t q = 0; q < rs.codeSymbols(); ++q) {
            if (q == dead)
                continue;
            std::vector<uint32_t> word = golden;
            word[dead] ^= 0x5u;
            word[q] ^= 0x9u;
            ASSERT_TRUE(rs.decodeErasure(word, dead).corrected())
                << dead << "," << q;
            ASSERT_EQ(word, golden) << dead << "," << q;
        }
        // Erasure alone.
        std::vector<uint32_t> word = golden;
        word[dead] ^= 0xFu;
        ASSERT_TRUE(rs.decodeErasure(word, dead).corrected());
        ASSERT_EQ(word, golden);
        // Error elsewhere while the dead symbol happens to be intact.
        word = golden;
        word[(dead + 1) % rs.codeSymbols()] ^= 0x3u;
        ASSERT_TRUE(rs.decodeErasure(word, dead).corrected());
        ASSERT_EQ(word, golden);
        // Clean word stays clean.
        word = golden;
        EXPECT_TRUE(rs.decodeErasure(word, dead).clean());
    }
}

TEST(SymbolRs, ErasurePlusDoubleErrorNeverPassesSilently)
{
    // 1 erasure + 2 errors exceeds d-1; the decoder may flag it or
    // miscorrect, but a "corrected" claim must at least be consistent:
    // re-encoding the result must produce a valid codeword.
    const SymbolRsCode rs(4, 12);
    Rng rng(8);
    const std::vector<uint32_t> golden = randomCodeword(rs, rng);
    for (int i = 0; i < 200; ++i) {
        std::vector<uint32_t> word = golden;
        const size_t dead = rng.nextBelow(rs.codeSymbols());
        word[dead] ^= uint32_t(rng.nextBelow(15)) + 1;
        for (int k = 0; k < 2; ++k)
            word[rng.nextBelow(rs.codeSymbols())] ^=
                uint32_t(rng.nextBelow(15)) + 1;
        const SymbolDecodeResult res = rs.decodeErasure(word, dead);
        if (res.corrected() || res.clean()) {
            EXPECT_TRUE(oracle::syndromeCleanNaive(rs, word));
        }
    }
}

} // namespace
} // namespace tdc
