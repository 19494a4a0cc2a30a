/**
 * @file
 * A small, portable, *stable* content hash for cache keys.
 *
 * The campaign result cache (reliability/result_cache.hh) addresses
 * its entries by a digest of the canonical experiment description, and
 * those digests live in on-disk file names that must stay valid across
 * processes, platforms, compilers, and library versions. std::hash
 * guarantees none of that, so this header provides a self-contained
 * streaming hash whose output is pinned by unit tests: two 64-bit
 * FNV-1a lanes with distinct offset bases, finalized through a
 * SplitMix64-style avalanche, giving a 128-bit digest with no
 * dependencies and byte-order independence (input is consumed as
 * bytes; integers are fed in little-endian order explicitly).
 *
 * This is a fingerprint for content addressing, not a cryptographic
 * hash — collisions are guarded against downstream by storing the full
 * key inside every cache entry and verifying it on load.
 */

#ifndef TDC_COMMON_STABLE_HASH_HH
#define TDC_COMMON_STABLE_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tdc
{

/** 128-bit digest as two 64-bit halves. */
struct StableDigest
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    /** 32 lowercase hex characters, hi half first. */
    std::string hex() const;

    bool operator==(const StableDigest &) const = default;
};

/**
 * Streaming stable hash. Feed bytes and strings in any interleaving;
 * the digest depends only on the concatenated byte stream
 * (updateBytes("ab") == updateBytes("a") + updateBytes("b")). A
 * string update is framed with a tag byte + length so that
 * structurally different key sequences cannot alias byte-identically.
 */
class StableHash
{
  public:
    StableHash();

    /** Raw bytes, unframed (the primitive the others build on). */
    void updateBytes(const void *data, size_t len);

    /** A length-framed string field. */
    void update(std::string_view s);

    /** Digest of everything fed so far (non-destructive). */
    StableDigest digest() const;

  private:
    uint64_t a_;
    uint64_t b_;
};

/** One-shot convenience: digest of a single string. */
StableDigest stableHash(std::string_view s);

// Little-endian fixed-width fields: the one spelling the on-disk
// formats (recorded request traces, result-cache entries) share.

/** Append @p v to @p out as 4 little-endian bytes. */
void putU32(std::string &out, uint32_t v);

/** Append @p v to @p out as 8 little-endian bytes. */
void putU64(std::string &out, uint64_t v);

/** Store @p v as the 8 little-endian bytes at @p p. */
void storeU64(unsigned char *p, uint64_t v);

/** The 4 little-endian bytes at @p p. */
uint32_t getU32(const unsigned char *p);

/** The 8 little-endian bytes at @p p. */
uint64_t getU64(const unsigned char *p);

} // namespace tdc

#endif // TDC_COMMON_STABLE_HASH_HH
