#include "array/interleave.hh"

#include <algorithm>
#include <cassert>

namespace tdc
{

InterleaveMap::InterleaveMap(size_t word_bits, size_t degree)
    : wordWidth(word_bits), intvDegree(degree)
{
    assert(wordWidth > 0);
    assert(intvDegree > 0);
    if (intvDegree <= 64) {
        // One plan per in-word phase. For degrees dividing 64 every
        // row word uses phase == slot; for the others the phase walks
        // by phaseStep per word, and the cache holds all of them (at
        // most degree plans, shared by every slot).
        const uint64_t base = strideMask64(intvDegree);
        plans.reserve(intvDegree);
        for (size_t p = 0; p < intvDegree; ++p)
            plans.emplace_back(base << p);
        phaseStep = (intvDegree - 64 % intvDegree) % intvDegree;
    }
}

size_t
InterleaveMap::physicalColumn(size_t slot, size_t bit) const
{
    assert(slot < intvDegree);
    assert(bit < wordWidth);
    return bit * intvDegree + slot;
}

BitVector
InterleaveMap::extractWord(const BitVector &row, size_t slot) const
{
    BitVector word(wordWidth);
    extractWordInto(row, slot, word);
    return word;
}

void
InterleaveMap::extractWordInto(ConstBitSpan row, size_t slot,
                               BitVector &word) const
{
    assert(row.size() == rowBits());
    assert(slot < intvDegree);
    if (word.size() != wordWidth)
        word = BitVector(wordWidth);

    if (plans.empty()) {
        extractWordSlow(row, slot, word);
        return;
    }

    // Word-parallel gather: row word i holds columns [i*64, i*64+64);
    // the ones belonging to this slot sit at in-word positions
    // p == phase (mod degree), where the phase starts at the slot
    // index and advances by phaseStep per word. The phase's compress
    // plan packs them to the low end (one PEXT, or six shift/AND/OR
    // stages on the scalar tier).
    const uint64_t *src = row.words();
    uint64_t *dst = word.wordData();
    const size_t dstWords = word.wordCount();
    for (size_t i = 0; i < dstWords; ++i)
        dst[i] = 0;

    size_t dstPos = 0;
    size_t phase = slot;
    const size_t srcWords = row.wordCount();
    for (size_t i = 0; i < srcWords; ++i) {
        const size_t valid = std::min<size_t>(rowBits() - i * 64, 64);
        if (valid > phase) {
            const BitCompressPlan &plan = plans[phase];
            // A full row word holds every position of the phase.
            const size_t cnt =
                valid == 64 ? plan.count()
                            : (valid - phase + intvDegree - 1) / intvDegree;
            uint64_t chunk = plan.compress(src[i]);
            if (cnt < 64)
                chunk &= (uint64_t(1) << cnt) - 1;
            const size_t off = dstPos % 64;
            dst[dstPos / 64] |= chunk << off;
            if (off + cnt > 64)
                dst[dstPos / 64 + 1] |= chunk >> (64 - off);
            dstPos += cnt;
        }
        phase += phaseStep;
        if (phase >= intvDegree)
            phase -= intvDegree;
    }
    assert(dstPos == wordWidth);
}

void
InterleaveMap::depositWord(BitVector &row, size_t slot,
                           const BitVector &word) const
{
    assert(row.size() == rowBits());
    assert(word.size() == wordWidth);
    assert(slot < intvDegree);

    if (plans.empty()) {
        depositWordSlow(row, slot, word);
        return;
    }

    // Word-parallel scatter: the inverse of extractWordInto. For each
    // row word, expand the next chunk of codeword bits onto the
    // phase's positions and splice it in under the same mask.
    const uint64_t *src = word.wordData();
    uint64_t *dst = row.wordData();
    size_t srcPos = 0;
    size_t phase = slot;
    const size_t dstWords = row.wordCount();
    for (size_t i = 0; i < dstWords; ++i) {
        const size_t valid = std::min<size_t>(rowBits() - i * 64, 64);
        if (valid > phase) {
            const BitCompressPlan &plan = plans[phase];
            // A full row word holds every position of the phase, so its
            // count and lanes are the plan's; only a partial top word
            // takes the low cnt of them.
            const bool full = valid == 64;
            const size_t cnt =
                full ? plan.count()
                     : (valid - phase + intvDegree - 1) / intvDegree;
            // Gather cnt source bits starting at srcPos (spans <= 2
            // words).
            const size_t off = srcPos % 64;
            uint64_t chunk = src[srcPos / 64] >> off;
            if (off != 0 && srcPos / 64 + 1 < word.wordCount())
                chunk |= src[srcPos / 64 + 1] << (64 - off);
            if (cnt < 64)
                chunk &= (uint64_t(1) << cnt) - 1;
            const uint64_t spread = plan.expand(chunk);
            const uint64_t lanes =
                full ? plan.mask() : plan.expand((uint64_t(1) << cnt) - 1);
            dst[i] = (dst[i] & ~lanes) | spread;
            srcPos += cnt;
        }
        phase += phaseStep;
        if (phase >= intvDegree)
            phase -= intvDegree;
    }
    assert(srcPos == wordWidth);
}

void
InterleaveMap::extractWordSlow(ConstBitSpan row, size_t slot,
                               BitVector &word) const
{
    for (size_t b = 0; b < wordWidth; ++b)
        word.set(b, row.get(physicalColumn(slot, b)));
}

void
InterleaveMap::depositWordSlow(BitVector &row, size_t slot,
                               const BitVector &word) const
{
    for (size_t b = 0; b < wordWidth; ++b)
        row.set(physicalColumn(slot, b), word.get(b));
}

} // namespace tdc
