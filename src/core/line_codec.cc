#include "core/line_codec.hh"

#include <cassert>

#include "ecc/interleaved_parity.hh"

namespace tdc
{

LineCodec::LineCodec(const Code &code, const InterleaveMap &map)
    : code(code), map(map), fusedFoldBits(0)
{
    assert(map.rowBits() == code.codewordBits() * map.degree());
    // Fused clean check: with a degree-d interleave, codeword bit b of
    // slot s sits at physical column c = b*d + s, so c mod (d*n) equals
    // (b mod n)*d + s. When the data width is a multiple of n, check
    // bit j lands in parity class j, and the whole-row fold down to
    // p = d*n bits is the concatenation of every slot's n-bit
    // syndrome: zero iff the entire line is clean. The fold is one
    // pass over the row words when p divides 64 or 64 divides p.
    const auto *edc = dynamic_cast<const InterleavedParityCode *>(&code);
    if (edc != nullptr) {
        const size_t n = code.checkBits();
        const size_t p = map.degree() * n;
        if (code.dataBits() % n == 0 && (64 % p == 0 || p % 64 == 0))
            fusedFoldBits = p;
    }
}

bool
LineCodec::lineClean(const BitVector &row_bits) const
{
    assert(row_bits.size() == map.rowBits());
    if (fusedFoldBits != 0) {
        // One pass over the packed row words. Bits past the row size
        // are zero (BitVector invariant), so partial top words fold
        // harmlessly.
        const uint64_t *words = row_bits.wordData();
        const size_t nwords = row_bits.wordCount();
        if (fusedFoldBits > 64) {
            // Wide period: row word i covers columns [64i, 64i+64),
            // whose residues mod p are those of lane i mod p/64. The
            // lanes are the p-bit fold; clean iff every lane is zero.
            const size_t lanes = fusedFoldBits / 64;
            for (size_t l = 0; l < lanes; ++l) {
                uint64_t acc = 0;
                for (size_t w = l; w < nwords; w += lanes)
                    acc ^= words[w];
                if (acc != 0)
                    return false;
            }
            return true;
        }
        // Narrow period: 64 is a multiple of p, so in-word bit
        // position mod p equals column mod p.
        uint64_t acc = 0;
        for (size_t w = 0; w < nwords; ++w)
            acc ^= words[w];
        for (size_t width = 64; width > fusedFoldBits; width /= 2)
            acc ^= acc >> (width / 2);
        if (fusedFoldBits < 64)
            acc &= (uint64_t(1) << fusedFoldBits) - 1;
        return acc == 0;
    }

    for (size_t slot = 0; slot < map.degree(); ++slot) {
        map.extractWordInto(row_bits, slot, cwScratch);
        if (!code.syndromeClean(cwScratch))
            return false;
    }
    return true;
}

void
LineCodec::encodeLine(const std::vector<BitVector> &words,
                      BitVector &row_bits) const
{
    assert(words.size() == map.degree());
    assert(row_bits.size() == map.rowBits());
    for (size_t slot = 0; slot < map.degree(); ++slot)
        map.depositWord(row_bits, slot, code.encode(words[slot]));
}

bool
LineCodec::correctLine(BitVector &row_bits, bool &changed) const
{
    assert(row_bits.size() == map.rowBits());
    changed = false;
    if (fusedFoldBits != 0 && lineClean(row_bits))
        return true;
    for (size_t slot = 0; slot < map.degree(); ++slot) {
        map.extractWordInto(row_bits, slot, cwScratch);
        if (code.syndromeClean(cwScratch))
            continue;
        DecodeResult d = code.decode(cwScratch);
        if (d.uncorrectable())
            return false;
        if (d.corrected()) {
            map.depositWord(row_bits, slot, code.encode(d.data));
            changed = true;
        }
    }
    return true;
}

} // namespace tdc
