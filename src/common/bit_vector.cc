#include "common/bit_vector.hh"

#include <algorithm>
#include <bit>

namespace tdc
{

BitVector::BitVector(size_t nbits)
    : numBits(nbits)
{
    const size_t w = wordCount();
    if (w > inlineWords) {
        wordPtr = new uint64_t[w];
        capWords = w;
    }
    std::fill_n(wordPtr, w, 0);
}

BitVector::BitVector(size_t nbits, uint64_t value)
    : BitVector(nbits)
{
    if (numBits != 0) {
        wordPtr[0] = value;
        trimTopWord();
    }
}

BitVector::BitVector(const BitVector &other)
    : numBits(other.numBits)
{
    const size_t w = wordCount();
    if (w > inlineWords) {
        wordPtr = new uint64_t[w];
        capWords = w;
    }
    std::copy_n(other.wordPtr, w, wordPtr);
}

BitVector::BitVector(BitVector &&other) noexcept
    : numBits(other.numBits)
{
    if (other.wordPtr != other.inlineStore) {
        wordPtr = other.wordPtr;
        capWords = other.capWords;
        other.wordPtr = other.inlineStore;
        other.capWords = inlineWords;
    } else {
        std::copy_n(other.inlineStore, wordCount(), inlineStore);
    }
    other.numBits = 0;
}

BitVector &
BitVector::operator=(const BitVector &other)
{
    if (this == &other)
        return *this;
    numBits = other.numBits;
    reserveWords(wordCount(), 0);
    std::copy_n(other.wordPtr, wordCount(), wordPtr);
    return *this;
}

BitVector &
BitVector::operator=(BitVector &&other) noexcept
{
    if (this == &other)
        return *this;
    if (other.wordPtr != other.inlineStore) {
        release();
        wordPtr = other.wordPtr;
        capWords = other.capWords;
        numBits = other.numBits;
        other.wordPtr = other.inlineStore;
        other.capWords = inlineWords;
    } else {
        // Inline source: plain copy (capacity here is always enough).
        numBits = other.numBits;
        std::copy_n(other.inlineStore, wordCount(), wordPtr);
    }
    other.numBits = 0;
    return *this;
}

void
BitVector::reserveWords(size_t words, size_t preserveWords)
{
    if (words <= capWords)
        return;
    const size_t newCap = std::max(words, capWords * 2);
    uint64_t *fresh = new uint64_t[newCap];
    std::copy_n(wordPtr, preserveWords, fresh);
    release();
    wordPtr = fresh;
    capWords = newCap;
}

void
BitVector::trimTopWord()
{
    const size_t rem = numBits % bitsPerWord;
    if (rem != 0)
        wordPtr[wordCount() - 1] &= (uint64_t(1) << rem) - 1;
}

bool
BitVector::get(size_t pos) const
{
    assert(pos < numBits);
    return (wordPtr[pos / bitsPerWord] >> (pos % bitsPerWord)) & 1;
}

void
BitVector::set(size_t pos, bool value)
{
    assert(pos < numBits);
    const uint64_t mask = uint64_t(1) << (pos % bitsPerWord);
    if (value)
        wordPtr[pos / bitsPerWord] |= mask;
    else
        wordPtr[pos / bitsPerWord] &= ~mask;
}

void
BitVector::flip(size_t pos)
{
    assert(pos < numBits);
    wordPtr[pos / bitsPerWord] ^= uint64_t(1) << (pos % bitsPerWord);
}

bool
BitVector::none() const
{
    for (size_t i = 0, n = wordCount(); i < n; ++i)
        if (wordPtr[i] != 0)
            return false;
    return true;
}

size_t
BitVector::popcount() const
{
    size_t count = 0;
    for (size_t i = 0, n = wordCount(); i < n; ++i)
        count += std::popcount(wordPtr[i]);
    return count;
}

BitVector &
BitVector::operator^=(const BitVector &other)
{
    assert(numBits == other.numBits);
    for (size_t i = 0, n = wordCount(); i < n; ++i)
        wordPtr[i] ^= other.wordPtr[i];
    return *this;
}

BitVector &
BitVector::operator|=(const BitVector &other)
{
    assert(numBits == other.numBits);
    for (size_t i = 0, n = wordCount(); i < n; ++i)
        wordPtr[i] |= other.wordPtr[i];
    return *this;
}

BitVector
BitVector::operator^(const BitVector &other) const
{
    BitVector out(*this);
    out ^= other;
    return out;
}

bool
BitVector::operator==(const BitVector &other) const
{
    if (numBits != other.numBits)
        return false;
    return std::equal(wordPtr, wordPtr + wordCount(), other.wordPtr);
}

BitVector
BitVector::slice(size_t pos, size_t len) const
{
    assert(pos + len <= numBits);
    BitVector out(len);
    // Word-at-a-time copy with a bit offset.
    const size_t shift = pos % bitsPerWord;
    size_t src = pos / bitsPerWord;
    for (size_t dst = 0, n = out.wordCount(); dst < n; ++dst, ++src) {
        uint64_t w = wordPtr[src] >> shift;
        if (shift != 0 && src + 1 < wordCount())
            w |= wordPtr[src + 1] << (bitsPerWord - shift);
        out.wordPtr[dst] = w;
    }
    out.trimTopWord();
    return out;
}

void
BitVector::setSlice(size_t pos, const BitVector &src)
{
    assert(pos + src.numBits <= numBits);
    // Word-at-a-time deposit: each source word lands across at most
    // two destination words.
    for (size_t i = 0, n = src.wordCount(); i < n; ++i) {
        const size_t len = std::min(src.numBits - i * bitsPerWord,
                                    bitsPerWord);
        setBits(pos + i * bitsPerWord, src.wordPtr[i], len);
    }
}

void
BitVector::setBits(size_t pos, uint64_t value, size_t len)
{
    assert(pos <= numBits);
    len = std::min(len, numBits - pos);
    if (len == 0)
        return;
    assert(len <= bitsPerWord);
    const uint64_t mask =
        len == bitsPerWord ? ~uint64_t(0) : (uint64_t(1) << len) - 1;
    value &= mask;
    const size_t w = pos / bitsPerWord;
    const size_t off = pos % bitsPerWord;
    wordPtr[w] = (wordPtr[w] & ~(mask << off)) | (value << off);
    if (off + len > bitsPerWord) {
        const size_t spill = bitsPerWord - off;
        wordPtr[w + 1] =
            (wordPtr[w + 1] & ~(mask >> spill)) | (value >> spill);
    }
}

void
BitVector::pushBack(bool bit)
{
    const size_t oldWords = wordCount();
    ++numBits;
    reserveWords(wordCount(), oldWords);
    if (wordCount() > oldWords)
        wordPtr[wordCount() - 1] = 0;
    set(numBits - 1, bit);
}

uint64_t
BitVector::toUint64(size_t pos, size_t len) const
{
    assert(pos <= numBits);
    len = std::min(len, numBits - pos);
    assert(len <= 64);
    if (len == 0)
        return 0;
    const size_t w = pos / bitsPerWord;
    const size_t off = pos % bitsPerWord;
    uint64_t out = wordPtr[w] >> off;
    if (off != 0 && w + 1 < wordCount())
        out |= wordPtr[w + 1] << (bitsPerWord - off);
    if (len < bitsPerWord)
        out &= (uint64_t(1) << len) - 1;
    return out;
}

bool
BitVector::parity() const
{
    uint64_t acc = 0;
    for (size_t i = 0, n = wordCount(); i < n; ++i)
        acc ^= wordPtr[i];
    return std::popcount(acc) & 1;
}

} // namespace tdc
