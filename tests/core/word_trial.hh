/**
 * @file
 * The word-by-word reference of one injection trial. The scheme
 * layer's sessions fill, scrub and verify a bank a line (row) at a
 * time; this is the same trial written one word at a time through the
 * array's word API, and every line-granular session must reach the
 * verdict it reaches. Works on a TwoDimArray (scrubbed before the
 * read-back) and on a ProtectedArray (no scrub: in-line correction on
 * read is the conventional scrub).
 */

#ifndef TDC_TESTS_CORE_WORD_TRIAL_HH
#define TDC_TESTS_CORE_WORD_TRIAL_HH

#include <algorithm>
#include <vector>

#include "array/fault.hh"
#include "array/protected_array.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace tdc
{

/** How a word-by-word trial ended. */
struct WordTrialVerdict
{
    /** Some word was flagged uncorrectable (or the scrub failed). */
    bool due = false;
    /** Some word read back wrong without a flag. */
    bool silent = false;
};

/** Golden data words, [row][slot]. */
using GoldenWords = std::vector<std::vector<BitVector>>;

/** A @p bits-wide data word drawn as the sessions draw golden data:
 *  one rng.next() per 64 bits, lowest chunk first. */
inline BitVector
drawWord(size_t bits, Rng &rng)
{
    BitVector d(bits);
    for (size_t w = 0; w < bits; w += 64)
        d.setBits(w, rng.next(), std::min<size_t>(64, bits - w));
    return d;
}

/** Golden fill through writeWord, row by row, slot by slot. */
template <class Array>
GoldenWords
fillWords(Array &arr, Rng &rng)
{
    GoldenWords golden(arr.rows(), std::vector<BitVector>(arr.wordsPerRow()));
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            golden[r][s] = drawWord(arr.dataBits(), rng);
            arr.writeWord(r, s, golden[r][s]);
        }
    }
    return golden;
}

/** Scrub (2D banks only), then readWord every word in row, slot
 *  order and classify it against @p golden. */
template <class Array>
WordTrialVerdict
scrubAndReadBack(Array &arr, const GoldenWords &golden)
{
    WordTrialVerdict v;
    if constexpr (requires { arr.scrub(); })
        v.due = !arr.scrub();
    for (size_t r = 0; r < arr.rows(); ++r) {
        for (size_t s = 0; s < arr.wordsPerRow(); ++s) {
            const AccessResult res = arr.readWord(r, s);
            if (!res.ok())
                v.due = true;
            else if (res.data != golden[r][s])
                v.silent = true;
        }
    }
    return v;
}

/**
 * Trial @p trial of ProtectionScheme::injectAndRecover, word by word:
 * a golden fill drawn from Rng(shardSeed(seed, trial)), one @p fault
 * from the same generator, then scrubAndReadBack. The reference the
 * line-granular scheme sessions must agree with.
 */
template <class Array>
WordTrialVerdict
sessionTrial(Array &arr, const FaultModel &fault, uint64_t seed,
             uint64_t trial = 0)
{
    Rng rng(shardSeed(seed, trial));
    const GoldenWords golden = fillWords(arr, rng);
    FaultInjector(rng).inject(arr.cells(), fault);
    return scrubAndReadBack(arr, golden);
}

} // namespace tdc

#endif // TDC_TESTS_CORE_WORD_TRIAL_HH
