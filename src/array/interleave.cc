#include "array/interleave.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace tdc
{

uint64_t
strideMask64(size_t stride)
{
    assert(stride >= 1 && stride <= 64);
    uint64_t mask = 0;
    for (size_t p = 0; p < 64; p += stride)
        mask |= uint64_t(1) << p;
    return mask;
}

InterleaveMap::InterleaveMap(size_t word_bits, size_t degree)
    : wordWidth(word_bits), intvDegree(degree)
{
    assert(wordWidth > 0);
    if (intvDegree == 0 || intvDegree > 64)
        throw std::invalid_argument(
            "interleave degree must be in [1, 64], got " +
            std::to_string(intvDegree));
    phaseStep = (intvDegree - 64 % intvDegree) % intvDegree;
    const size_t lastValid = (rowBits() - 1) % 64 + 1;
    for (size_t p = 0; p < intvDegree; ++p) {
        fullLanes[p] = uint8_t((64 - p + intvDegree - 1) / intvDegree);
        lastLanes[p] = uint8_t(
            lastValid > p ? (lastValid - p + intvDegree - 1) / intvDegree
                          : 0);
    }

    // Word kernel: a full row word holds ceil(64/d) lanes of a slot,
    // and stage i merges pairs of 2^i-bit groups until one group
    // holds them all. Degree 1 needs no merge (its lanes are already
    // adjacent).
    groupMasks[0] = strideMask64(intvDegree);
    for (unsigned i = 0; i < kMergeStages; ++i) {
        const size_t group = size_t(1) << (i + 1);
        if (intvDegree == 1 || (group >> 1) >= fullLanes[0]) {
            groupMasks[i + 1] = ~uint64_t(0);
            continue;
        }
        uint64_t mask = 0;
        for (size_t p = 0; p < 64; p += group * intvDegree)
            mask |= ((uint64_t(1) << group) - 1) << p;
        groupMasks[i + 1] = mask;
        mergeShifts[i] = unsigned((intvDegree - 1) << i);
    }

    // Line kernel: for d = 2^L, column c moves to rotr6(c, L), so
    // index bit m of the new column is index bit (m + L) mod 6 of the
    // old one. Selection-sort the six index bits into that order; each
    // swap of index bits j < k is one delta swap over the columns
    // whose bit j is set and bit k clear.
    lineKernel = std::has_single_bit(intvDegree);
    if (!lineKernel)
        return;
    lineLog2 = unsigned(std::countr_zero(intvDegree));
    unsigned src[6] = {0, 1, 2, 3, 4, 5};
    for (unsigned j = 0; j < 6; ++j) {
        const unsigned want = (j + lineLog2) % 6;
        if (src[j] == want)
            continue;
        unsigned k = j + 1;
        while (src[k] != want)
            ++k;
        uint64_t mask = 0;
        for (unsigned p = 0; p < 64; ++p)
            if (((p >> j) & 1) && !((p >> k) & 1))
                mask |= uint64_t(1) << p;
        swaps[swapCount++] = {mask, (1u << k) - (1u << j)};
        std::swap(src[j], src[k]);
    }
}

size_t
InterleaveMap::physicalColumn(size_t slot, size_t bit) const
{
    assert(slot < intvDegree);
    assert(bit < wordWidth);
    return bit * intvDegree + slot;
}

uint64_t
InterleaveMap::compressLane(uint64_t x, size_t phase) const
{
    // The slot's lanes sit at k*d after the shift; stage i moves each
    // odd 2^i-bit group right by (d-1)*2^i, onto the end of the even
    // group before it.
    x = (x >> phase) & groupMasks[0];
    for (unsigned i = 0; i < kMergeStages; ++i)
        x = (x | (x >> mergeShifts[i])) & groupMasks[i + 1];
    return x;
}

uint64_t
InterleaveMap::expandLane(uint64_t x) const
{
    for (unsigned i = kMergeStages; i-- > 0;)
        x = (x | (x << mergeShifts[i])) & groupMasks[i];
    return x;
}

uint64_t
InterleaveMap::transposeLanes(uint64_t x) const
{
    for (unsigned i = 0; i < swapCount; ++i) {
        const uint64_t t = ((x >> swaps[i].shift) ^ x) & swaps[i].mask;
        x ^= t ^ (t << swaps[i].shift);
    }
    return x;
}

uint64_t
InterleaveMap::untransposeLanes(uint64_t x) const
{
    for (unsigned i = swapCount; i-- > 0;) {
        const uint64_t t = ((x >> swaps[i].shift) ^ x) & swaps[i].mask;
        x ^= t ^ (t << swaps[i].shift);
    }
    return x;
}

BitVector
InterleaveMap::extractWord(const BitVector &row, size_t slot) const
{
    BitVector word(wordWidth);
    extractWordInto(row, slot, word);
    return word;
}

void
InterleaveMap::extractWordInto(const BitVector &row, size_t slot,
                               BitVector &word) const
{
    assert(row.size() == rowBits());
    assert(slot < intvDegree);
    if (word.size() != wordWidth)
        word = BitVector(wordWidth);

    // Row word i holds columns [i*64, i*64+64); the ones belonging to
    // this slot sit at in-word positions p == phase (mod degree),
    // where the phase starts at the slot index and advances by
    // phaseStep per word. The word kernel packs them to the low end.
    const uint64_t *src = row.wordData();
    uint64_t *dst = word.wordData();
    const size_t dstWords = word.wordCount();
    for (size_t i = 0; i < dstWords; ++i)
        dst[i] = 0;

    size_t dstPos = 0;
    size_t phase = slot;
    const size_t last = row.wordCount() - 1;
    for (size_t i = 0; i <= last; ++i) {
        const size_t cnt = i == last ? lastLanes[phase] : fullLanes[phase];
        if (cnt != 0) {
            // Bits past the row are zero, so a partial top word packs
            // zeros above its cnt lanes.
            const uint64_t chunk = compressLane(src[i], phase);
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

    // The inverse of extractWordInto. For each row word, expand the
    // next chunk of codeword bits onto the phase's positions and
    // splice it in under the same positions.
    const uint64_t *src = word.wordData();
    uint64_t *dst = row.wordData();
    size_t srcPos = 0;
    size_t phase = slot;
    const size_t last = row.wordCount() - 1;
    for (size_t i = 0; i <= last; ++i) {
        const size_t cnt = i == last ? lastLanes[phase] : fullLanes[phase];
        if (cnt != 0) {
            // Gather cnt source bits starting at srcPos (spans <= 2
            // words).
            const size_t off = srcPos % 64;
            uint64_t chunk = src[srcPos / 64] >> off;
            if (off != 0 && srcPos / 64 + 1 < word.wordCount())
                chunk |= src[srcPos / 64 + 1] << (64 - off);
            const uint64_t low =
                cnt < 64 ? (uint64_t(1) << cnt) - 1 : ~uint64_t(0);
            // A word holding every lane of the phase needs no expand.
            const uint64_t lanes = cnt == fullLanes[phase]
                                       ? groupMasks[0] << phase
                                       : expandLane(low) << phase;
            dst[i] = (dst[i] & ~lanes) | (expandLane(chunk & low) << phase);
            srcPos += cnt;
        }
        phase += phaseStep;
        if (phase >= intvDegree)
            phase -= intvDegree;
    }
    assert(srcPos == wordWidth);
}

void
InterleaveMap::extractLine(const BitVector &row,
                           std::vector<BitVector> &words) const
{
    assert(row.size() == rowBits());
    words.resize(intvDegree);
    if (!lineKernel) {
        for (size_t slot = 0; slot < intvDegree; ++slot)
            extractWordInto(row, slot, words[slot]);
        return;
    }

    // After the transpose, row word i holds slot s's bits
    // [i*c, i*c + c) in its s-th c-bit chunk, c = 64/d. Chunks never
    // straddle a codeword word, and bits past the row are zero, so a
    // partial top row word adds only zeros.
    for (BitVector &w : words) {
        if (w.size() != wordWidth)
            w = BitVector(wordWidth);
        std::fill_n(w.wordData(), w.wordCount(), uint64_t(0));
    }
    const unsigned chunk = 64u >> lineLog2;
    const uint64_t chunkMask =
        chunk == 64 ? ~uint64_t(0) : (uint64_t(1) << chunk) - 1;
    const uint64_t *src = row.wordData();
    for (size_t i = 0; i < row.wordCount(); ++i) {
        const uint64_t y = transposeLanes(src[i]);
        const size_t pos = i * chunk;
        for (size_t slot = 0; slot < intvDegree; ++slot)
            words[slot].wordData()[pos / 64] |=
                ((y >> (slot * chunk)) & chunkMask) << (pos % 64);
    }
}

void
InterleaveMap::depositLine(const std::vector<BitVector> &words,
                           BitVector &row) const
{
    assert(words.size() == intvDegree);
    assert(row.size() == rowBits());
    if (!lineKernel) {
        for (size_t slot = 0; slot < intvDegree; ++slot)
            depositWord(row, slot, words[slot]);
        return;
    }

    // The inverse of extractLine: assemble each row word's chunks,
    // then undo the transpose. Every column belongs to some slot, so
    // the row word is overwritten whole; codeword bits past wordBits
    // are zero, which keeps the row's bits past rowBits zero.
    const unsigned chunk = 64u >> lineLog2;
    const uint64_t chunkMask =
        chunk == 64 ? ~uint64_t(0) : (uint64_t(1) << chunk) - 1;
    uint64_t *dst = row.wordData();
    for (size_t i = 0; i < row.wordCount(); ++i) {
        const size_t pos = i * chunk;
        uint64_t y = 0;
        for (size_t slot = 0; slot < intvDegree; ++slot) {
            assert(words[slot].size() == wordWidth);
            y |= ((words[slot].wordData()[pos / 64] >> (pos % 64)) &
                  chunkMask)
                 << (slot * chunk);
        }
        dst[i] = untransposeLanes(y);
    }
}

} // namespace tdc
