#include "ecc/bch.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

#include "common/cpu_features.hh"

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

    // Build the byte-at-a-time division table (classic CRC technique):
    // one entry per top-byte value, giving the combined reduction of
    // eight bit-serial LFSR steps. Engaged when the remainder fits a
    // word and the data is byte-aligned — true for every (k, t) the
    // paper uses — and makes encode ~8x fewer, branch-free steps.
    if (r >= 8 && r <= 64 && k % 8 == 0) {
        for (size_t i = 0; i < r; ++i) {
            if (gen[i])
                genLow |= uint64_t(1) << i;
        }
        const uint64_t rmask =
            r == 64 ? ~uint64_t(0) : (uint64_t(1) << r) - 1;
        byteTable.resize(256);
        for (uint32_t b = 0; b < 256; ++b) {
            uint64_t cur = uint64_t(b) << (r - 8);
            for (int s = 0; s < 8; ++s) {
                const bool feedback = (cur >> (r - 1)) & 1;
                cur = (cur << 1) & rmask;
                if (feedback)
                    cur ^= genLow;
            }
            byteTable[b] = cur;
        }
    }

    // Per-byte syndrome contribution tables. For byte index bi of the
    // received word, entry (bi, v) is the XOR of the per-bit
    // contributions alpha^(j*p) of every set bit of v to each odd
    // syndrome S_j (j = 1, 3, .., 2t-1); p is the polynomial position
    // of the bit under the [data | check] layout. Built by the
    // classic subset-DP: tab[v] = tab[v & (v-1)] ^ perBit[ctz(v)].
    if (tCap <= kMaxT) {
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
    if (!byteTable.empty()) {
        // Byte-parallel LFSR division, message byte k/8-1 first (the
        // byte holding the highest polynomial coefficients).
        const uint64_t rmask =
            r == 64 ? ~uint64_t(0) : (uint64_t(1) << r) - 1;
        uint64_t rem = 0;
        for (size_t bi = k / 8; bi-- > 0;) {
            const uint64_t byte = data.toUint64(bi * 8, 8);
            const size_t top = size_t((rem >> (r - 8)) ^ byte) & 0xFF;
            rem = ((rem << 8) & rmask) ^ byteTable[top];
        }
        return BitVector(r, rem);
    }

    // Bit-serial LFSR division of x^r * d(x) by g(x), data
    // coefficient k-1 first.
    BitVector rem(r);
    for (size_t j = k; j-- > 0;) {
        const bool feedback = rem.get(r - 1) ^ data.get(j);
        for (size_t i = r - 1; i > 0; --i)
            rem.set(i, rem.get(i - 1) ^ (feedback && gen[i]));
        rem.set(0, feedback && gen[0]);
    }
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

namespace
{

/**
 * All solutions of the affine equation y^4 + P y^2 + Q y = R over
 * GF(2^m), m <= 12. The left side L(y) is GF(2)-linear in y
 * (squaring and constant multiplication both are), so the solution
 * set is a coset: one particular solution plus the kernel of the
 * m x m bit matrix of L — found by one Gaussian elimination over the
 * basis images L(e_i), reducing R against the same pivots.
 *
 * Returns 4 with the solutions in @p out when the kernel has
 * dimension exactly 2 and R lies in the image, 0 otherwise. The
 * locator paths only ever need full splitting (deg distinct roots),
 * so partial solution sets are not reported. With R == 0 the
 * particular solution is 0 and @p out is the kernel itself — the
 * cubic path uses its three nonzero elements.
 */
size_t
affineQuarticSolutions(const GF2m &gf, uint32_t P, uint32_t Q, uint32_t R,
                       uint32_t out[4])
{
    const unsigned m = gf.degree();
    uint32_t piv_col[12];  // reduced columns with a pivot
    uint32_t piv_comb[12]; // input combination producing each
    int pivot_of_bit[12];
    for (unsigned i = 0; i < m; ++i)
        pivot_of_bit[i] = -1;
    size_t num_piv = 0;
    uint32_t kernel[2];
    size_t kdim = 0;
    for (unsigned i = 0; i < m; ++i) {
        const uint32_t e = uint32_t(1) << i;
        uint32_t v = gf.sqr(gf.sqr(e)) ^ gf.mul(P, gf.sqr(e)) ^
                     gf.mul(Q, e);
        uint32_t comb = e;
        while (v != 0) {
            const int hb = int(std::bit_width(v)) - 1;
            const int j = pivot_of_bit[hb];
            if (j < 0)
                break;
            v ^= piv_col[j];
            comb ^= piv_comb[j];
        }
        if (v != 0) {
            piv_col[num_piv] = v;
            piv_comb[num_piv] = comb;
            pivot_of_bit[std::bit_width(v) - 1] = int(num_piv);
            ++num_piv;
        } else {
            if (kdim < 2)
                kernel[kdim] = comb;
            ++kdim;
        }
    }
    if (kdim != 2)
        return 0;

    // Particular solution: reduce R against the pivots. Every step
    // cancels the current leading bit, so it terminates; a leading
    // bit with no pivot means R is outside the image — no solution.
    uint32_t part = 0;
    uint32_t rem = R;
    while (rem != 0) {
        const int j = pivot_of_bit[std::bit_width(rem) - 1];
        if (j < 0)
            return 0;
        rem ^= piv_col[j];
        part ^= piv_comb[j];
    }
    out[0] = part;
    out[1] = part ^ kernel[0];
    out[2] = part ^ kernel[1];
    out[3] = part ^ kernel[0] ^ kernel[1];
    return 4;
}

} // namespace

bool
BchCode::locateClosed(const uint32_t *loc, size_t deg,
                      std::vector<size_t> &positions) const
{
    const GF2m &gf = *field;
    const uint32_t order = gf.order();
    const size_t n = k + r;

    // Roots are x = alpha^-p: position p = (order - log x) mod order,
    // valid only when p < n. The locator's constant term is nonzero
    // (invariant of BM and preserved by deflation: 0 is never a
    // root), so x = 0 never occurs.
    const auto push_root = [&](uint32_t x) {
        const uint32_t lx = gf.log(x);
        const uint32_t p = lx == 0 ? 0 : order - lx;
        if (p >= n)
            return false;
        positions.push_back(p);
        return true;
    };

    if (deg == 1) {
        // loc0 + loc1 x = 0  =>  x = loc0/loc1.
        return push_root(gf.div(loc[0], loc[1]));
    }

    if (deg == 2) {
        // x^2 + a x + b with a = loc1/loc2, b = loc0/loc2. a == 0
        // means a repeated root: two distinct error positions cannot
        // exist.
        if (loc[1] == 0)
            return false;
        const uint32_t a = gf.div(loc[1], loc[2]);
        const uint32_t b = gf.div(loc[0], loc[2]);
        // Substitute x = a*y: y^2 + y + b/a^2 = 0.
        const uint32_t y0 = gf.solveQuadratic(gf.div(b, gf.sqr(a)));
        if (y0 == GF2m::kNoRoot)
            return false;
        return push_root(gf.mul(a, y0)) && push_root(gf.mul(a, y0 ^ 1));
    }

    if (deg == 3) {
        // Berlekamp's closed form. Monic: x^3 + a x^2 + b x + c;
        // substituting x = y + a gives the depressed cubic
        // y^3 + P y + Q with P = a^2 + b, Q = a*b + c.
        const uint32_t a = gf.div(loc[2], loc[3]);
        const uint32_t b = gf.div(loc[1], loc[3]);
        const uint32_t c = gf.div(loc[0], loc[3]);
        const uint32_t P = gf.sqr(a) ^ b;
        const uint32_t Q = gf.mul(a, b) ^ c;

        if (Q == 0) {
            // y (y^2 + P) = 0: y = 0 plus a double root sqrt(P) —
            // never three distinct roots.
            return false;
        }

        // Multiplying by y gives L(y) = y^4 + P y^2 + Q y = 0, whose
        // nonzero solutions are exactly the cubic's roots (0 is no
        // cubic root: Q != 0). The cubic splits with distinct roots
        // iff L's kernel has dimension 2; its three nonzero elements
        // are the roots. Uniform over every field — no trace-case
        // analysis.
        uint32_t sols[4];
        if (affineQuarticSolutions(gf, P, Q, 0, sols) != 4)
            return false; // at most one root: cannot split
        for (uint32_t y : sols) {
            if (y != 0 && !push_root(y ^ a)) // x = y + a
                return false;
        }
        return true;
    }

    // deg == 4: closed-form quartic. Monic: x^4 + a x^3 + b x^2 +
    // c x + d (d != 0: zero is never a locator root).
    assert(deg == 4);
    const uint32_t a = gf.div(loc[3], loc[4]);
    const uint32_t b = gf.div(loc[2], loc[4]);
    const uint32_t c = gf.div(loc[1], loc[4]);
    const uint32_t d = gf.div(loc[0], loc[4]);

    uint32_t sols[4];
    if (a == 0) {
        // The cubic term is already gone. c == 0 would leave
        // x^4 + b x^2 + d = (x^2 + sqrt(b) x + sqrt(d))^2 — a perfect
        // square, at most two distinct roots, never four.
        if (c == 0)
            return false;
        if (affineQuarticSolutions(gf, b, c, d, sols) != 4)
            return false;
        for (uint32_t x : sols) {
            if (!push_root(x))
                return false;
        }
        return true;
    }

    // Kill the linear term: the derivative is a x^2 + c (char 2), so
    // shifting by rr = sqrt(c/a), x = y + rr, gives
    // y^4 + a y^3 + b' y^2 + d' with b' = a*rr + b and d' = f(rr).
    const uint32_t rr = gf.sqrt(gf.div(c, a));
    const uint32_t rr2 = gf.sqr(rr);
    const uint32_t bp = gf.mul(a, rr) ^ b;
    const uint32_t fr = gf.sqr(rr2) ^ gf.mul(a, gf.mul(rr2, rr)) ^
                        gf.mul(b, rr2) ^ gf.mul(c, rr) ^ d;
    if (fr == 0) {
        // x = rr itself is a root: deflate by (x + rr) with synthetic
        // division and finish with the cubic closed form. A repeated
        // root reappearing among the cubic's is caught by the
        // caller's duplicate check.
        uint32_t q[4];
        q[3] = 1;
        q[2] = a ^ rr;
        q[1] = b ^ gf.mul(rr, q[2]);
        q[0] = c ^ gf.mul(rr, q[1]);
        return push_root(rr) && locateClosed(q, 3, positions);
    }
    // No root at y = 0, so substitute y = 1/z and multiply by z^4/d':
    // the affine z^4 + (b'/d') z^2 + (a/d') z = 1/d'. Solutions are
    // nonzero automatically (L(0) = 0 != 1/d'), and distinct z give
    // distinct x = 1/z + rr.
    const uint32_t dInv = gf.inv(fr);
    if (affineQuarticSolutions(gf, gf.mul(bp, dInv), gf.mul(a, dInv),
                               dInv, sols) != 4)
        return false;
    for (uint32_t z : sols) {
        if (!push_root(gf.inv(z) ^ rr))
            return false;
    }
    return true;
}

bool
BchCode::locateErrors(const uint32_t *loc, size_t deg_l,
                      std::vector<size_t> &positions) const
{
    positions.clear();
    if (deg_l == 0)
        return true; // no errors located
    if (deg_l > tCap)
        return false;

    const GF2m &gf = *field;
    const uint32_t order = gf.order();
    const size_t n = k + r;

    uint32_t work[kBmLen];
    for (size_t i = 0; i <= deg_l; ++i)
        work[i] = loc[i];
    size_t deg = deg_l;

    // Incremental (log-domain) Chien sweep for degrees the closed
    // forms do not reach: term i of L(alpha^-p) is
    // alpha^(log loc_i - i*p), so stepping p -> p+1 adds the constant
    // (order - i) to each term's exponent — no Horner pass, no
    // modular arithmetic beyond a wrap subtraction. Every root found
    // is deflated out of the locator (synthetic division), shrinking
    // the term count, until the closed forms take over. The quartic
    // closed form belongs to the accelerated dispatch tiers; the
    // scalar tier stops at the cubic, reproducing the reference
    // decoder exactly (same roots either way — only the work to find
    // them differs).
    const size_t closedMax = simdBmi2Active() ? 4 : 3;
    size_t p = 0;
    while (deg > closedMax) {
        uint32_t exps[kBmLen];
        uint32_t steps[kBmLen];
        size_t terms = 0;
        for (size_t i = 0; i <= deg; ++i) {
            if (work[i] == 0)
                continue;
            exps[terms] = uint32_t(
                (gf.log(work[i]) +
                 uint64_t(order - uint32_t(i % order)) * p) %
                order);
            steps[terms] = order - uint32_t(i % order);
            ++terms;
        }

        bool found = false;
        for (; p < n; ++p) {
            uint32_t v = 0;
            for (size_t j = 0; j < terms; ++j)
                v ^= gf.expDirect(exps[j]);
            if (v == 0) {
                positions.push_back(p);
                // Deflate by the root x0 = alpha^-p and restart the
                // sweep state from the next position.
                const uint32_t x0 =
                    gf.expDirect(p == 0 ? 0 : order - uint32_t(p));
                uint32_t carry = work[deg]; // quotient coeff q[deg-1]
                for (size_t i = deg - 1;; --i) {
                    const uint32_t tmp = work[i];
                    work[i] = carry;
                    if (i == 0)
                        break;
                    carry = tmp ^ gf.mul(x0, carry);
                }
                --deg;
                ++p;
                found = true;
                break;
            }
            for (size_t j = 0; j < terms; ++j) {
                exps[j] += steps[j];
                if (exps[j] >= order)
                    exps[j] -= order;
            }
        }
        if (!found) {
            // Fewer roots in [0, n) than the degree demands: the
            // locator does not split over the field (> t errors) or a
            // root sits in the shortened region. Both uncorrectable.
            return false;
        }
    }

    if (!locateClosed(work, deg, positions))
        return false;

    std::sort(positions.begin(), positions.end());
    // Coincident positions mean a repeated root: the locator cannot
    // describe deg_l distinct error locations.
    for (size_t i = 1; i < positions.size(); ++i) {
        if (positions[i] == positions[i - 1])
            return false;
    }
    return true;
}

std::vector<uint32_t>
BchCode::syndromesNaive(const BitVector &codeword) const
{
    // Coefficient position of codeword bit b: check bits occupy
    // coefficients 0..r-1, data bits r..r+k-1. Iterate only the set
    // bits via word scans.
    std::vector<uint32_t> synd(2 * tCap, 0);
    const uint64_t *words = codeword.wordData();
    for (size_t w = 0, n = codeword.wordCount(); w < n; ++w) {
        uint64_t x = words[w];
        while (x != 0) {
            const size_t b = w * 64 + size_t(std::countr_zero(x));
            x &= x - 1;
            const size_t p = b < k ? r + b : b - k;
            for (size_t j = 0; j < 2 * tCap; ++j)
                synd[j] ^= field->alphaPow(int64_t(j + 1) * int64_t(p));
        }
    }
    return synd;
}

GFPoly
BchCode::berlekampMassey(const std::vector<uint32_t> &synd) const
{
    // Standard Berlekamp-Massey over GF(2^m).
    GFPoly locator({1}); // C(x)
    GFPoly prev({1});    // B(x)
    size_t lfsrLen = 0;  // L
    size_t gap = 1;      // x^gap multiplier for B
    uint32_t prevDisc = 1;

    for (size_t n = 0; n < synd.size(); ++n) {
        uint32_t disc = synd[n];
        for (size_t i = 1; i <= lfsrLen; ++i)
            disc ^= field->mul(locator.coeff(i), synd[n - i]);

        if (disc == 0) {
            ++gap;
            continue;
        }

        // C' = C - (disc/prevDisc) * x^gap * B  (minus == plus here).
        GFPoly shifted;
        const uint32_t scale = field->div(disc, prevDisc);
        for (size_t i = 0; i <= prev.degree(); ++i) {
            if (prev.coeff(i) != 0) {
                shifted.setCoeff(i + gap,
                                 field->mul(scale, prev.coeff(i)));
            }
        }
        GFPoly updated = GFPoly::add(locator, shifted);

        if (2 * lfsrLen <= n) {
            prev = locator;
            prevDisc = disc;
            lfsrLen = n + 1 - lfsrLen;
            gap = 1;
        } else {
            ++gap;
        }
        locator = updated;
    }
    return locator;
}

bool
BchCode::chienSearch(const GFPoly &locator,
                     std::vector<size_t> &positions) const
{
    const size_t degL = locator.degree();
    if (degL == 0)
        return true; // no errors located
    if (degL > tCap)
        return false;

    // Roots of the locator are alpha^(-p) for error position p. Only
    // p < n can correspond to a codeword bit, so scanning stops there
    // (not at the full group order 2^m - 1): a root in the shortened
    // region simply never shows up and the count check below flags
    // the word, same verdict as the old full scan at a fraction of
    // the work.
    positions.clear();
    for (uint32_t p = 0; p < k + r; ++p) {
        if (locator.eval(*field, field->alphaPow(-int64_t(p))) == 0)
            positions.push_back(p);
    }
    if (positions.size() != degL)
        return false; // does not split in range: > t errors or
                      // shortened-region root
    return true;
}

DecodeResult
BchCode::decode(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    if (syndTable.empty())
        return decodeNaive(codeword); // exotic t > kMaxT

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
    if (syndTable.empty())
        return Code::syndromeClean(codeword); // exotic t > kMaxT
    uint32_t synd[2 * kMaxT];
    return syndromesFast(codeword, synd);
}

DecodeResult
BchCode::decodeNaive(const BitVector &codeword) const
{
    assert(codeword.size() == k + r);
    DecodeResult result;
    result.data = codeword.slice(0, k);

    const std::vector<uint32_t> synd = syndromesNaive(codeword);
    bool all_zero = true;
    for (uint32_t s : synd) {
        if (s != 0) {
            all_zero = false;
            break;
        }
    }
    if (all_zero) {
        result.status = DecodeStatus::kClean;
        return result;
    }

    const GFPoly locator = berlekampMassey(synd);
    std::vector<size_t> positions;
    if (!chienSearch(locator, positions) || positions.empty()) {
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
