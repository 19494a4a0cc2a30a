#include "ecc/interleaved_parity.hh"

#include <cassert>
#include <stdexcept>

namespace tdc
{

InterleavedParityCode::InterleavedParityCode(size_t data_bits, size_t n)
    : k(data_bits), numClasses(n)
{
    if (n == 0 || n > 64 || 64 % n != 0)
        throw std::invalid_argument("EDCn needs n dividing 64, got n = " +
                                    std::to_string(n));
    assert(k > 0);
    assert(numClasses <= k);
}

uint64_t
InterleavedParityCode::foldClasses(const uint64_t *words, size_t nbits) const
{
    // Bit p of word w belongs to class (64w + p) mod n = p mod n since
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
    return BitVector(numClasses, foldClasses(data.wordData(), k));
}

uint64_t
InterleavedParityCode::syndromeBits(const BitVector &codeword) const
{
    assert(codeword.size() == codewordBits());
    // Recomputed check over the data region XOR the stored check bits.
    return foldClasses(codeword.wordData(), k) ^
           codeword.toUint64(k, numClasses);
}

BitVector
InterleavedParityCode::syndrome(const BitVector &codeword) const
{
    return BitVector(numClasses, syndromeBits(codeword));
}

bool
InterleavedParityCode::syndromeClean(const BitVector &codeword) const
{
    return syndromeBits(codeword) == 0;
}

DecodeResult
InterleavedParityCode::decode(const BitVector &codeword) const
{
    DecodeResult result;
    result.data = codeword.slice(0, k);
    result.status = syndromeBits(codeword) == 0
                        ? DecodeStatus::kClean
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
