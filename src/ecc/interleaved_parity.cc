#include "ecc/interleaved_parity.hh"

#include <cassert>

namespace tdc
{

InterleavedParityCode::InterleavedParityCode(size_t data_bits, size_t n)
    : k(data_bits), numClasses(n), wordParallel(n <= 64 && 64 % n == 0)
{
    assert(k > 0);
    assert(numClasses > 0);
    assert(numClasses <= k);
}

uint64_t
InterleavedParityCode::foldClasses(const uint64_t *words, size_t nbits) const
{
    // Bit p of word w belongs to class (64w + p) mod n = p mod n when
    // n divides 64, so the words can be XOR-folded together first and
    // the 64-bit accumulator halved down to n bits afterwards.
    uint64_t acc = 0;
    const size_t full = nbits / 64;
    for (size_t w = 0; w < full; ++w)
        acc ^= words[w];
    const size_t rem = nbits % 64;
    if (rem != 0)
        acc ^= words[full] & ((uint64_t(1) << rem) - 1);
    for (size_t width = 64; width > numClasses; width /= 2)
        acc ^= acc >> (width / 2);
    return numClasses < 64 ? acc & ((uint64_t(1) << numClasses) - 1) : acc;
}

BitVector
InterleavedParityCode::computeCheck(const BitVector &data) const
{
    assert(data.size() == k);
    if (wordParallel)
        return BitVector(numClasses, foldClasses(data.wordData(), k));

    BitVector check(numClasses);
    for (size_t i = 0; i < k; ++i) {
        if (data.get(i))
            check.flip(i % numClasses);
    }
    return check;
}

uint64_t
InterleavedParityCode::syndromeBits(const BitVector &codeword) const
{
    // Recomputed check over the data region XOR the stored check bits.
    return foldClasses(codeword.wordData(), k) ^
           codeword.toUint64(k, numClasses);
}

BitVector
InterleavedParityCode::syndrome(const BitVector &codeword) const
{
    assert(codeword.size() == codewordBits());
    if (wordParallel)
        return BitVector(numClasses, syndromeBits(codeword));

    BitVector syn = computeCheck(codeword.slice(0, k));
    syn ^= codeword.slice(k, numClasses);
    return syn;
}

bool
InterleavedParityCode::syndromeClean(const BitVector &codeword) const
{
    assert(codeword.size() == codewordBits());
    if (wordParallel)
        return syndromeBits(codeword) == 0;
    return Code::syndromeClean(codeword);
}

DecodeResult
InterleavedParityCode::decode(const BitVector &codeword) const
{
    assert(codeword.size() == codewordBits());
    DecodeResult result;
    result.data = codeword.slice(0, k);
    const bool clean = wordParallel ? syndromeBits(codeword) == 0
                                    : syndrome(codeword).none();
    result.status = clean ? DecodeStatus::kClean
                          : DecodeStatus::kDetectedUncorrectable;
    return result;
}

std::string
InterleavedParityCode::name() const
{
    return "EDC" + std::to_string(numClasses) + " (" +
           std::to_string(codewordBits()) + "," + std::to_string(k) + ")";
}

} // namespace tdc
