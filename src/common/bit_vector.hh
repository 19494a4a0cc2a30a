/**
 * @file
 * Dynamically sized bit vector used throughout the coding, array and
 * cache substrates.
 *
 * std::vector<bool> is avoided on purpose: the codecs need word-level
 * access (XOR of whole vectors, popcount, burst extraction) that a
 * packed uint64_t representation provides directly.
 */

#ifndef TDC_COMMON_BIT_VECTOR_HH
#define TDC_COMMON_BIT_VECTOR_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace tdc
{

/**
 * A fixed-length sequence of bits packed into 64-bit words.
 *
 * Bit 0 is the least-significant bit of word 0. All binary operators
 * require operands of identical length; this is asserted, not resized,
 * because a silent length mismatch in a codec is always a bug.
 *
 * Storage is small-buffer optimized: vectors up to 320 bits (every
 * codeword geometry of the study, and an L1 physical row) live inline
 * with no heap traffic, which is what keeps the per-access codec path
 * allocation-free. Longer vectors (wide physical rows) spill to the
 * heap exactly like a std::vector would.
 */
class BitVector
{
  public:
    /** Construct an empty (zero-length) vector. */
    BitVector() = default;

    /** Construct a vector of @p nbits bits, all cleared. */
    explicit BitVector(size_t nbits);

    /**
     * Construct from the low @p nbits of an integer value.
     * Bits above 64 (if nbits > 64) are cleared.
     */
    BitVector(size_t nbits, uint64_t value);

    BitVector(const BitVector &other);
    BitVector(BitVector &&other) noexcept;
    BitVector &operator=(const BitVector &other);
    BitVector &operator=(BitVector &&other) noexcept;
    ~BitVector() { release(); }

    /** Number of bits in the vector. */
    size_t size() const { return numBits; }

    /** True iff the vector has zero length. */
    bool empty() const { return numBits == 0; }

    /** Read the bit at @p pos. */
    bool get(size_t pos) const;

    /** Set the bit at @p pos to @p value. */
    void set(size_t pos, bool value);

    /** Invert the bit at @p pos. */
    void flip(size_t pos);

    /** True iff no bit is set. */
    bool none() const;

    /** True iff at least one bit is set. */
    bool any() const { return !none(); }

    /** Number of set bits. */
    size_t popcount() const;

    /** In-place XOR with @p other (same length required). */
    BitVector &operator^=(const BitVector &other);

    /** In-place OR with @p other (same length required). */
    BitVector &operator|=(const BitVector &other);

    BitVector operator^(const BitVector &other) const;

    bool operator==(const BitVector &other) const;
    bool operator!=(const BitVector &other) const
    {
        return !(*this == other);
    }

    /**
     * Extract @p len bits starting at @p pos into a new vector.
     * @pre pos + len <= size()
     */
    BitVector slice(size_t pos, size_t len) const;

    /**
     * Overwrite @p src.size() bits starting at @p pos with @p src.
     * @pre pos + src.size() <= size()
     */
    void setSlice(size_t pos, const BitVector &src);

    /** Append a single bit at the end (grows the vector). */
    void pushBack(bool bit);

    /**
     * Return the low min(64, size()-pos) bits starting at @p pos as an
     * integer (little-endian bit order).
     */
    uint64_t toUint64(size_t pos = 0, size_t len = 64) const;

    /** Parity (XOR) of all bits. */
    bool parity() const;

    /**
     * Overwrite min(len, 64, size()-pos) bits starting at @p pos with
     * the low bits of @p value (little-endian bit order).
     */
    void setBits(size_t pos, uint64_t value, size_t len = 64);

    /** Number of 64-bit words backing the vector. */
    size_t wordCount() const
    {
        return (numBits + bitsPerWord - 1) / bitsPerWord;
    }

    /**
     * Raw pointer to the packed word storage. The mutable overload is
     * the escape hatch the span/codec hot paths are built on; callers
     * must preserve the invariant that bits at positions >= size() in
     * the top word stay zero.
     */
    const uint64_t *wordData() const { return wordPtr; }
    uint64_t *wordData() { return wordPtr; }

  private:
    /** Zero any stale bits above numBits in the top word. */
    void trimTopWord();

    /** Free the heap buffer, if any (leaves members stale). */
    void release()
    {
        if (wordPtr != inlineStore)
            delete[] wordPtr;
    }

    /**
     * Ensure capacity for @p words words, carrying over the first
     * @p preserveWords valid words (grow path); pass 0 to drop the
     * contents (assign path).
     */
    void reserveWords(size_t words, size_t preserveWords);

    static constexpr size_t bitsPerWord = 64;
    /** Inline capacity: 320 bits, one cache line of payload. */
    static constexpr size_t inlineWords = 5;

    size_t numBits = 0;
    size_t capWords = inlineWords;
    uint64_t *wordPtr = inlineStore;
    uint64_t inlineStore[inlineWords];
};

} // namespace tdc

#endif // TDC_COMMON_BIT_VECTOR_HH
