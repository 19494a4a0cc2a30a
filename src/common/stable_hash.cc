#include "common/stable_hash.hh"

namespace tdc
{

namespace
{

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr uint64_t kBasisA = 0xcbf29ce484222325ULL;  // FNV-1a offset
constexpr uint64_t kBasisB = 0x9ae16a3b2f90404fULL;  // independent lane

/** SplitMix64 finalizer: avalanches the weak FNV tail bits. */
uint64_t
avalanche(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

std::string
StableDigest::hex() const
{
    static const char *digits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
        out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
    for (int i = 0; i < 16; ++i)
        out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
    return out;
}

StableHash::StableHash() : a_(kBasisA), b_(kBasisB) {}

void
StableHash::updateBytes(const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        a_ = (a_ ^ p[i]) * kFnvPrime;
        // Second lane walks the stream backwards through a rotated
        // byte so the two lanes never degenerate into each other.
        b_ = (b_ ^ (uint64_t(p[i]) << 8 | (b_ >> 56))) * kFnvPrime;
    }
}

void
StableHash::update(std::string_view s)
{
    const unsigned char tag = 's';
    updateBytes(&tag, 1);
    const uint64_t len = s.size();
    unsigned char frame[8];
    for (int i = 0; i < 8; ++i)
        frame[i] = (unsigned char)(len >> (8 * i));
    updateBytes(frame, 8);
    updateBytes(s.data(), s.size());
}

StableDigest
StableHash::digest() const
{
    StableDigest d;
    d.hi = avalanche(a_ ^ (b_ * kFnvPrime));
    d.lo = avalanche(b_ ^ avalanche(a_));
    return d;
}

StableDigest
stableHash(std::string_view s)
{
    StableHash h;
    h.update(s);
    return h.digest();
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

void
storeU64(unsigned char *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = (unsigned char)(v >> (8 * i));
}

uint32_t
getU32(const unsigned char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

} // namespace tdc
