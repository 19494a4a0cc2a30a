/**
 * @file
 * Whole-cache data store built from multiple 2D-protected banks —
 * the granularity at which the paper deploys the scheme ("32 parity
 * rows per cache bank").
 */

#ifndef TDC_CORE_TWOD_CACHE_STORE_HH
#define TDC_CORE_TWOD_CACHE_STORE_HH

#include <memory>
#include <vector>

#include "core/twod_array.hh"

namespace tdc
{

/**
 * An array of independently protected TwoDimArray banks addressed by
 * a flat word index. Each bank has its own vertical parity rows, so a
 * multi-bit event in one bank is recovered locally while the others
 * keep serving accesses — and simultaneous events in different banks
 * are independently correctable. That per-bank independence is what
 * scrubAll exploits: banks are sharded over the parallelFor worker
 * pool, and each bank touches only its own state, so the sweep is
 * bit-identical at any TDC_THREADS setting.
 */
class TwoDimCacheStore
{
  public:
    /**
     * @param bank_config per-bank 2D configuration
     * @param banks number of banks
     * @throws std::invalid_argument when @p banks is zero
     */
    TwoDimCacheStore(const TwoDimConfig &bank_config, size_t banks);

    size_t banks() const { return bankArray.size(); }
    size_t wordsPerBank() const;
    size_t totalWords() const { return banks() * wordsPerBank(); }
    size_t dataBits() const;

    /** Bank that owns flat word index @p word. */
    size_t bankOf(size_t word) const { return word % banks(); }

    /** Access to one bank (fault injection, inspection). */
    TwoDimArray &bank(size_t b) { return *bankArray[b]; }
    const TwoDimArray &bank(size_t b) const { return *bankArray[b]; }

    /** Write @p value to flat word index @p word. */
    void writeWord(size_t word, const BitVector &value);

    /** Read flat word index @p word (recovery runs transparently). */
    AccessResult readWord(size_t word);

    /** Scrub every bank, bank-parallel; true iff all end clean. */
    bool scrubAll();

    /** Combined storage overhead (identical across banks). */
    double storageOverhead() const;

    /**
     * Aggregate statistics over all banks. Stats are sharded per bank
     * (each bank mutates only its own counters, even during parallel
     * sweeps) and merged here in ascending bank order.
     */
    TwoDimStats aggregateStats() const;

  private:
    /** Map a flat word index to (bank-local row, slot). */
    std::pair<size_t, size_t> locate(size_t word) const;

    std::vector<std::unique_ptr<TwoDimArray>> bankArray;
};

} // namespace tdc

#endif // TDC_CORE_TWOD_CACHE_STORE_HH
