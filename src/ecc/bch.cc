#include "ecc/bch.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>
#include <stdexcept>

namespace tdc
{

namespace
{

/**
 * Build the generator polynomial of the t-error-correcting primitive
 * BCH code over @p field: the LCM of the minimal polynomials of
 * alpha^1 .. alpha^2t. Returned over GF(2), bit i = coeff of x^i.
 */
std::vector<bool>
buildGenerator(const GF2m &field, size_t t)
{
    // Collect the distinct cyclotomic cosets {i, 2i, 4i, ...} of the
    // exponents 1..2t mod (2^m - 1).
    std::set<uint32_t> covered;
    GFPoly gen({1});
    for (uint32_t i = 1; i <= 2 * t; ++i) {
        const uint32_t rep = i % field.order();
        if (covered.count(rep))
            continue;
        // Minimal polynomial of alpha^rep: product of (x + alpha^j)
        // over the coset of rep.
        GFPoly minimal({1});
        uint32_t j = rep;
        do {
            covered.insert(j);
            minimal = GFPoly::mul(field,
                                  minimal,
                                  GFPoly({field.alphaPow(j), 1}));
            j = uint32_t((uint64_t(j) * 2) % field.order());
        } while (j != rep);
        gen = GFPoly::mul(field, gen, minimal);
    }

    std::vector<bool> out(gen.degree() + 1);
    for (size_t i = 0; i <= gen.degree(); ++i) {
        const uint32_t c = gen.coeff(i);
        assert((c == 0 || c == 1) && "generator must be binary");
        out[i] = c == 1;
    }
    assert(out.back());
    return out;
}

} // namespace

BchCode::BchCode(size_t data_bits, size_t t)
    : k(data_bits), tCap(t)
{
    assert(k > 0 && t > 0);
    if (t > kMaxT)
        throw std::invalid_argument("BCH supports t <= " +
                                    std::to_string(kMaxT) + ", got t = " +
                                    std::to_string(t));
    // Pick the smallest field degree whose primitive length fits the
    // shortened code.
    for (unsigned m = 4; m <= 12; ++m) {
        auto candidate = std::make_shared<GF2m>(m);
        if (2 * t >= candidate->order())
            continue;
        std::vector<bool> g = buildGenerator(*candidate, t);
        const size_t deg = g.size() - 1;
        if (k + deg <= candidate->order()) {
            field = std::move(candidate);
            gen = std::move(g);
            r = deg;
            break;
        }
    }
    assert(field && "no supported field fits this (k, t)");

    if (r > kMaxCheckBits)
        throw std::invalid_argument(
            "BCH supports at most " + std::to_string(kMaxCheckBits) +
            " check bits, got r = " + std::to_string(r) + " for k = " +
            std::to_string(k) + ", t = " + std::to_string(t));

    // Build the byte-at-a-time division table (classic CRC technique):
    // one entry per top-byte value, giving the combined reduction of
    // eight bit-serial LFSR steps. The remainder is kept left-aligned
    // in two words (coefficient r-1 at bit 63 of the high word), so
    // one table serves every r <= 128 with branch-free steps.
    uint64_t gen_hi = 0, gen_lo = 0;
    for (size_t i = 0; i < r; ++i) {
        const size_t bit = 128 - r + i;
        if (gen[i])
            (bit >= 64 ? gen_hi : gen_lo) |= uint64_t(1) << (bit % 64);
    }
    byteTable.resize(2 * 256);
    for (uint32_t b = 0; b < 256; ++b) {
        uint64_t hi = uint64_t(b) << 56, lo = 0;
        for (int s = 0; s < 8; ++s) {
            const bool feedback = hi >> 63;
            hi = (hi << 1) | (lo >> 63);
            lo <<= 1;
            if (feedback) {
                hi ^= gen_hi;
                lo ^= gen_lo;
            }
        }
        byteTable[2 * b] = hi;
        byteTable[2 * b + 1] = lo;
    }

    // Per-byte syndrome contribution tables. For byte index bi of the
    // received word, entry (bi, v) is the XOR of the per-bit
    // contributions alpha^(j*p) of every set bit of v to each odd
    // syndrome S_j (j = 1, 3, .., 2t-1); p is the polynomial position
    // of the bit under the [data | check] layout. Built by the
    // classic subset-DP: tab[v] = tab[v & (v-1)] ^ perBit[ctz(v)].
    const size_t n = k + r;
    const size_t num_bytes = (n + 7) / 8;
    syndTable.assign(num_bytes * 256 * tCap, 0);
    std::vector<uint32_t> per_bit(8 * tCap);
    for (size_t bi = 0; bi < num_bytes; ++bi) {
        for (size_t u = 0; u < 8; ++u) {
            const size_t b = bi * 8 + u;
            for (size_t j = 0; j < tCap; ++j) {
                // Bits past n never occur in a valid codeword;
                // zero keeps their (unreachable) entries harmless.
                per_bit[u * tCap + j] =
                    b >= n ? 0
                           : field->alphaPow(int64_t(2 * j + 1) *
                                             int64_t(b < k ? r + b
                                                           : b - k));
            }
        }
        uint32_t *base = &syndTable[(bi << 8) * tCap];
        for (uint32_t v = 1; v < 256; ++v) {
            const uint32_t rest = v & (v - 1);
            const size_t u = size_t(std::countr_zero(v));
            const uint32_t *lo = &base[rest * tCap];
            const uint32_t *bit = &per_bit[u * tCap];
            uint32_t *dst = &base[v * tCap];
            for (size_t j = 0; j < tCap; ++j)
                dst[j] = lo[j] ^ bit[j];
        }
    }

    // Cache the fan-in of each systematic check equation: the column
    // of data bit j is x^(r+j) mod g(x); row i's weight counts the
    // data bits whose column has coefficient i set. Column 0 is
    // x^r mod g(x), the low r generator coefficients, and each next
    // column is one LFSR step (multiply by x, reduce by g) away.
    rowWeights.assign(r, 0);
    std::vector<bool> col(gen.begin(), gen.begin() + std::ptrdiff_t(r));
    for (size_t j = 0; j < k; ++j) {
        for (size_t i = 0; i < r; ++i)
            rowWeights[i] += col[i];
        const bool feedback = col[r - 1];
        for (size_t i = r - 1; i > 0; --i)
            col[i] = col[i - 1] ^ (feedback && gen[i]);
        col[0] = feedback && gen[0];
    }
}

BitVector
BchCode::polyRemainder(const BitVector &data) const
{
    assert(data.size() == k);
    // Byte-parallel LFSR division, message byte ceil(k/8)-1 first (the
    // byte holding the highest polynomial coefficients). When k is not
    // byte-aligned that byte is zero-padded above bit k-1; leading zero
    // coefficients leave the remainder unchanged.
    const uint64_t *words = data.wordData();
    uint64_t hi = 0, lo = 0;
    for (size_t bi = (k + 7) / 8; bi-- > 0;) {
        const uint64_t byte = (words[bi / 8] >> (8 * (bi % 8))) & 0xFF;
        const uint64_t *step = &byteTable[2 * ((hi >> 56) ^ byte)];
        hi = ((hi << 8) | (lo >> 56)) ^ step[0];
        lo = (lo << 8) ^ step[1];
    }
    // Coefficient i sits at bit 128 - r + i of the (hi, lo) pair.
    if (r <= 64)
        return BitVector(r, hi >> (64 - r));
    BitVector rem(r);
    rem.setBits(0, lo >> (128 - r), r - 64);
    rem.setBits(r - 64, hi, 64);
    return rem;
}

BitVector
BchCode::computeCheck(const BitVector &data) const
{
    return polyRemainder(data);
}

bool
BchCode::syndromesFast(const BitVector &codeword, uint32_t *synd) const
{
    // Odd syndromes: one table row XOR per nonzero received byte.
    uint32_t odd[kMaxT] = {};
    const uint64_t *words = codeword.wordData();
    const size_t num_bytes = (k + r + 7) / 8;
    for (size_t bi = 0; bi < num_bytes; ++bi) {
        const uint32_t v =
            uint32_t(words[bi / 8] >> ((bi % 8) * 8)) & 0xFF;
        if (v == 0)
            continue;
        const uint32_t *row = &syndTable[((bi << 8) | v) * tCap];
        for (size_t j = 0; j < tCap; ++j)
            odd[j] ^= row[j];
    }

    // Binary received polynomial => S_2j = S_j^2 (Frobenius), so the
    // even half costs t squarings instead of t more table passes.
    uint32_t any = 0;
    for (size_t j = 1; j <= 2 * tCap; ++j) {
        const uint32_t s =
            j % 2 == 1 ? odd[(j - 1) / 2] : field->sqr(synd[j / 2 - 1]);
        synd[j - 1] = s;
        any |= s;
    }
    return any == 0;
}

size_t
BchCode::berlekampMasseyFast(const uint32_t *synd, uint32_t *loc) const
{
    // Inversion-free Berlekamp-Massey: the classic update
    //   C'(x) = C(x) - (d/b) x^gap B(x)
    // is replaced by C'(x) = b*C(x) - d*x^gap*B(x), trading the
    // division (log/exp round trips through GF2m::div on every
    // discrepancy) for one extra mulColumn. The locator comes out
    // scaled by a nonzero constant, which moves no root. All buffers
    // live on the stack and every loop runs over the tracked active
    // length, not the worst-case kBmLen.
    uint32_t prev[kBmLen] = {1};  // B(x)
    uint32_t next[kBmLen];        // C'(x) scratch
    for (size_t i = 0; i < kBmLen; ++i)
        loc[i] = 0;
    loc[0] = 1; // C(x)
    size_t len_c = 1;  // active coefficients of C (tail is zero)
    size_t len_b = 1;  // active coefficients of B
    size_t lfsr_len = 0;
    size_t gap = 1;
    uint32_t prev_disc = 1;

    for (size_t step = 0; step < 2 * tCap; ++step) {
        // The scaled locator no longer has C[0] == 1, so the i = 0
        // term of the discrepancy is a real multiplication too.
        uint32_t disc = field->mul(loc[0], synd[step]);
        for (size_t i = 1; i <= lfsr_len; ++i) {
            if (loc[i] != 0 && synd[step - i] != 0)
                disc ^= field->mul(loc[i], synd[step - i]);
        }
        if (disc == 0) {
            ++gap;
            continue;
        }

        const size_t len_t =
            std::min(kBmLen, std::max(len_c, len_b + gap));
        field->mulColumn(prev_disc, loc, next, len_t);
        const uint32_t ld = field->log(disc);
        for (size_t i = 0; i + gap < len_t; ++i) {
            if (prev[i] != 0)
                next[i + gap] ^=
                    field->expDirect(ld + field->log(prev[i]));
        }

        if (2 * lfsr_len <= step) {
            for (size_t i = 0; i < len_c; ++i)
                prev[i] = loc[i];
            len_b = len_c;
            prev_disc = disc;
            lfsr_len = step + 1 - lfsr_len;
            gap = 1;
        } else {
            ++gap;
        }
        for (size_t i = 0; i < len_t; ++i)
            loc[i] = next[i];
        len_c = std::max(len_c, len_t);
    }

    size_t deg = 0;
    for (size_t i = 0; i < len_c; ++i) {
        if (loc[i] != 0)
            deg = i;
    }
    return deg;
}

bool
BchCode::locateErrors(const uint32_t *loc, size_t deg_l,
                      std::vector<size_t> &positions) const
{
    positions.clear();
    if (deg_l > tCap)
        return false;

    const GF2m &gf = *field;
    const uint32_t order = gf.order();
    const size_t n = k + r;

    uint32_t work[kBmLen];
    for (size_t i = 0; i <= deg_l; ++i)
        work[i] = loc[i];
    size_t deg = deg_l;

    // Incremental (log-domain) Chien sweep: term i of L(alpha^-p) is
    // alpha^(log loc_i - i*p), so stepping p -> p+1 adds the constant
    // (order - i) to each term's exponent — no Horner pass, no
    // modular arithmetic beyond a wrap subtraction. Every root found
    // is deflated out of the locator (synthetic division), shrinking
    // the term count, and the sweep resumes at the next position
    // until the locator is a constant. Positions therefore come out
    // ascending and distinct; a repeated root is never found twice,
    // so the roots fall short of the degree and the word is refused.
    uint32_t exps[kBmLen];
    uint32_t steps[kBmLen];
    size_t terms = 0;
    // The nonzero terms of the working locator, positioned at p.
    const auto loadTerms = [&](size_t p) {
        terms = 0;
        for (size_t i = 0; i <= deg; ++i) {
            if (work[i] == 0)
                continue;
            steps[terms] = order - uint32_t(i % order);
            exps[terms] = uint32_t(
                (gf.log(work[i]) + uint64_t(steps[terms]) * p) % order);
            ++terms;
        }
    };
    loadTerms(0);
    for (size_t p = 0; deg > 0; ++p) {
        if (p == n) {
            // Fewer roots in [0, n) than the degree demands: the
            // locator does not split over the field (> t errors), has
            // a repeated root, or a root sits in the shortened region.
            // All uncorrectable.
            return false;
        }
        // Evaluate at p and step every term on to p + 1 in one pass.
        uint32_t v = 0;
        for (size_t j = 0; j < terms; ++j) {
            v ^= gf.expDirect(exps[j]);
            exps[j] += steps[j];
            if (exps[j] >= order)
                exps[j] -= order;
        }
        if (v != 0)
            continue;

        positions.push_back(p);
        // Deflate by the root x0 = alpha^-p and reload the shorter
        // locator's terms at the next position.
        const uint32_t x0 = gf.expDirect(p == 0 ? 0 : order - uint32_t(p));
        uint32_t carry = work[deg]; // quotient coeff q[deg-1]
        for (size_t i = deg - 1;; --i) {
            const uint32_t tmp = work[i];
            work[i] = carry;
            if (i == 0)
                break;
            carry = tmp ^ gf.mul(x0, carry);
        }
        --deg;
        loadTerms(p + 1);
    }
    return true;
}

DecodeResult
BchCode::decode(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    DecodeResult result;
    result.data = codeword.slice(0, k);

    uint32_t synd[2 * kMaxT];
    if (syndromesFast(codeword, synd)) {
        result.status = DecodeStatus::kClean;
        return result;
    }

    uint32_t locator[kBmLen];
    const size_t deg_l = berlekampMasseyFast(synd, locator);
    std::vector<size_t> positions;
    if (!locateErrors(locator, deg_l, positions) || positions.empty()) {
        result.status = DecodeStatus::kDetectedUncorrectable;
        return result;
    }

    for (size_t p : positions) {
        // Coefficient position -> codeword bit index.
        const size_t bit = p < r ? k + p : p - r;
        if (bit < k)
            result.data.flip(bit);
        result.correctedPositions.push_back(bit);
    }
    result.status = DecodeStatus::kCorrected;
    return result;
}

bool
BchCode::syndromeClean(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    uint32_t synd[2 * kMaxT];
    return syndromesFast(codeword, synd);
}

size_t
BchCode::maxRowWeight() const
{
    size_t best = 0;
    for (size_t w : rowWeights)
        best = std::max(best, w);
    return best + 1; // + the stored check bit folded into the syndrome
}

size_t
BchCode::totalRowWeight() const
{
    size_t total = r; // stored check bits
    for (size_t w : rowWeights)
        total += w;
    return total;
}

std::string
BchCode::name() const
{
    return "(" + std::to_string(k + r) + "," + std::to_string(k) + ") BCH t=" +
           std::to_string(tCap);
}

ExtendedBchCode::ExtendedBchCode(size_t data_bits, size_t t,
                                 std::string display_name)
    : inner(data_bits, t), displayName(std::move(display_name))
{
}

BitVector
ExtendedBchCode::computeCheck(const BitVector &data) const
{
    BitVector check = inner.computeCheck(data);
    // Overall parity bit: make the full codeword even-parity.
    check.pushBack(data.parity() ^ check.parity());
    return check;
}

DecodeResult
ExtendedBchCode::decode(const BitVector &codeword) const
{
    const size_t n_inner = inner.codewordBits();
    assert(codeword.size() == n_inner + 1);

    // Overall parity of the received word equals (#errors mod 2),
    // because every valid codeword has even parity.
    const bool parity_odd = codeword.parity();

    DecodeResult result = inner.decode(codeword.slice(0, n_inner));
    if (result.uncorrectable())
        return result;

    const size_t num_corrected = result.correctedPositions.size();
    const bool parity_consistent = (num_corrected % 2 == 1) == parity_odd;

    if (parity_consistent)
        return result;

    // Parity disagrees with the inner correction count: one more error
    // exists. If the inner decoder was below capacity, it must be the
    // parity bit itself; at full capacity it proves >= t+1 errors.
    if (num_corrected < inner.correctCapability()) {
        result.correctedPositions.push_back(n_inner);
        result.status = DecodeStatus::kCorrected;
        return result;
    }
    result.status = DecodeStatus::kDetectedUncorrectable;
    result.data = codeword.slice(0, inner.dataBits());
    result.correctedPositions.clear();
    return result;
}

bool
ExtendedBchCode::syndromeClean(const BitVector &codeword) const
{
    assert(codeword.size() == inner.codewordBits() + 1);
    // Valid codewords have even overall parity and zero inner
    // syndromes; both checks are necessary.
    return !codeword.parity() &&
           inner.syndromeClean(codeword.slice(0, inner.codewordBits()));
}

std::string
ExtendedBchCode::name() const
{
    return "(" + std::to_string(codewordBits()) + "," +
           std::to_string(dataBits()) + ") " + displayName;
}

} // namespace tdc
