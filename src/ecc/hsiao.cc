#include "ecc/hsiao.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tdc
{

namespace
{

/** Number of r-bit values with odd weight >= 3. */
uint64_t
oddHeavyColumnCount(size_t r)
{
    // 2^(r-1) odd-weight vectors total, minus the r weight-1 vectors.
    return (uint64_t(1) << (r - 1)) - r;
}

} // namespace

size_t
HsiaoSecDedCode::checkBitsFor(size_t data_bits)
{
    for (size_t r = 4; r < 64; ++r) {
        if (oddHeavyColumnCount(r) >= data_bits)
            return r;
    }
    assert(false && "data word too wide");
    return 0;
}

HsiaoSecDedCode::HsiaoSecDedCode(size_t data_bits)
    : k(data_bits), r(checkBitsFor(data_bits))
{
    // Assign data columns: all odd-weight-(>=3) r-bit vectors, smallest
    // weight first (Hsiao's construction minimizes total H weight and
    // hence encoder XOR count); within a weight, ascending numeric
    // order for determinism.
    columns.reserve(k + r);
    for (size_t w = 3; columns.size() < k && w <= r; w += 2) {
        for (uint64_t v = 0; v < (uint64_t(1) << r) && columns.size() < k;
             ++v) {
            if (size_t(std::popcount(v)) == w)
                columns.push_back(v);
        }
    }
    assert(columns.size() == k);
    // Check columns: unit vectors.
    for (size_t i = 0; i < r; ++i)
        columns.push_back(uint64_t(1) << i);

    // Precompute syndrome -> bit position.
    syndromeToPos.assign(size_t(1) << r, -1);
    for (size_t i = 0; i < k + r; ++i)
        syndromeToPos[columns[i]] = int32_t(i);

    // Per-byte syndrome table (see header).
    const size_t nBytes = (k + r + 7) / 8;
    byteSyndromes.assign(nBytes * 256, 0);
    for (size_t i = 0; i < nBytes; ++i) {
        const size_t bits = std::min<size_t>(8, k + r - i * 8);
        for (size_t b = 1; b < 256; ++b) {
            uint64_t acc = 0;
            for (size_t j = 0; j < bits; ++j) {
                if ((b >> j) & 1)
                    acc ^= columns[i * 8 + j];
            }
            byteSyndromes[i * 256 + b] = acc;
        }
    }
}

uint64_t
HsiaoSecDedCode::foldBytes(const uint64_t *words, size_t nbytes) const
{
    const uint64_t *tbl = byteSyndromes.data();
    uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    size_t i = 0;
    for (; i + 8 <= nbytes; i += 8) {
        const uint64_t w = words[i / 8];
        const uint64_t *t = tbl + i * 256;
        s0 ^= t[0 * 256 + (w & 0xFF)];
        s1 ^= t[1 * 256 + ((w >> 8) & 0xFF)];
        s2 ^= t[2 * 256 + ((w >> 16) & 0xFF)];
        s3 ^= t[3 * 256 + ((w >> 24) & 0xFF)];
        s0 ^= t[4 * 256 + ((w >> 32) & 0xFF)];
        s1 ^= t[5 * 256 + ((w >> 40) & 0xFF)];
        s2 ^= t[6 * 256 + ((w >> 48) & 0xFF)];
        s3 ^= t[7 * 256 + (w >> 56)];
    }
    for (; i < nbytes; ++i)
        s0 ^= tbl[i * 256 + ((words[i / 8] >> (8 * (i % 8))) & 0xFF)];
    return (s0 ^ s1) ^ (s2 ^ s3);
}

BitVector
HsiaoSecDedCode::computeCheck(const BitVector &data) const
{
    assert(data.size() == k);
    return BitVector(r, foldBytes(data.wordData(), (k + 7) / 8));
}

bool
HsiaoSecDedCode::syndromeClean(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    return foldBytes(codeword.wordData(), (k + r + 7) / 8) == 0;
}

DecodeResult
HsiaoSecDedCode::decode(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    DecodeResult result;
    result.data = codeword.slice(0, k);

    const uint64_t syndrome =
        foldBytes(codeword.wordData(), (k + r + 7) / 8);

    if (syndrome == 0) {
        result.status = DecodeStatus::kClean;
        return result;
    }

    if (std::popcount(syndrome) % 2 == 1) {
        // Odd syndrome: single-bit correction via the lookup table.
        const int32_t pos = syndromeToPos[syndrome];
        if (pos >= 0) {
            if (size_t(pos) < k)
                result.data.flip(size_t(pos));
            result.correctedPositions.push_back(size_t(pos));
            result.status = DecodeStatus::kCorrected;
            return result;
        }
        // Odd-weight syndrome matching no column: >= 3 errors.
        result.status = DecodeStatus::kDetectedUncorrectable;
        return result;
    }

    // Even nonzero syndrome: double-bit error detected.
    result.status = DecodeStatus::kDetectedUncorrectable;
    return result;
}

size_t
HsiaoSecDedCode::maxRowWeight() const
{
    size_t best = 0;
    for (size_t row = 0; row < r; ++row) {
        size_t weight = 0;
        for (size_t i = 0; i < k + r; ++i)
            weight += (columns[i] >> row) & 1;
        best = std::max(best, weight);
    }
    return best;
}

size_t
HsiaoSecDedCode::totalRowWeight() const
{
    size_t total = 0;
    for (uint64_t c : columns)
        total += std::popcount(c);
    return total;
}

std::string
HsiaoSecDedCode::name() const
{
    return "(" + std::to_string(k + r) + "," + std::to_string(k) +
           ") SECDED";
}

} // namespace tdc
