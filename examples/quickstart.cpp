/**
 * @file
 * Quickstart: protect a memory bank with 2D error coding, corrupt it
 * with a large clustered error, and watch the recovery process
 * reconstruct every bit.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/example_quickstart
 */

#include <cstdio>

#include "array/fault.hh"
#include "common/rng.hh"
#include "core/twod_array.hh"

using namespace tdc;

int
main()
{
    // The paper's L1 configuration: EDC8 horizontal code over 64-bit
    // words, 4-way physical bit interleaving, 32 vertical parity rows
    // over a 256-row bank. Guaranteed coverage: any clustered error
    // up to 32x32 bits.
    TwoDimConfig config = TwoDimConfig::l1Default();
    TwoDimArray bank(config);
    std::printf("2D-protected bank: %s\n", config.describe().c_str());
    std::printf("storage overhead: %.1f%%  (horizontal + vertical)\n\n",
                100.0 * bank.storageOverhead());

    // Fill the bank with data and keep a golden copy.
    Rng rng(12345);
    std::vector<std::vector<BitVector>> golden(
        bank.rows(), std::vector<BitVector>(bank.wordsPerRow()));
    for (size_t row = 0; row < bank.rows(); ++row) {
        for (size_t slot = 0; slot < bank.wordsPerRow(); ++slot) {
            BitVector word(64, rng.next());
            bank.writeWord(row, slot, word); // read-before-write inside
            golden[row][slot] = word;
        }
    }
    std::printf("wrote %zu words; every write performed a "
                "read-before-write to keep the\nvertical parity current "
                "(%llu updates so far)\n\n",
                bank.rows() * bank.wordsPerRow(),
                (unsigned long long)bank.stats().readBeforeWrites);

    // A single energetic particle strike flips a solid 32x32 block.
    const FaultModel strike = FaultModel::cluster(32, 32);
    const FaultEvent hit = FaultInjector(rng).inject(bank.cells(), strike);
    std::printf("injected: %s cluster at rows %zu-%zu, columns %zu-%zu\n",
                strike.describe().c_str(), hit.rowLo, hit.rowHi, hit.colLo,
                hit.colHi);

    // The next read of an affected word sees a horizontal detection,
    // triggers the Figure 4(b) recovery sweep, and returns the
    // original data.
    const size_t row = hit.rowLo;
    // Column c holds a bit of word slot c mod degree.
    const size_t slot = hit.colLo % bank.interleave().degree();
    AccessResult result = bank.readWord(row, slot);
    std::printf("read row %zu slot %zu -> %s\n", row, slot,
                result.ok() ? "data recovered" : "UNRECOVERABLE");

    const RecoveryReport &report = bank.lastRecovery();
    std::printf("recovery: %zu rows reconstructed, %llu row reads "
                "(~BIST march latency), column path %s\n",
                report.rowsReconstructed.size(),
                (unsigned long long)report.rowReads,
                report.usedColumnPath ? "used" : "not needed");

    // Verify every word in the bank against the golden copy.
    size_t mismatches = 0;
    for (size_t r = 0; r < bank.rows(); ++r)
        for (size_t s = 0; s < bank.wordsPerRow(); ++s)
            mismatches += bank.readWord(r, s).data != golden[r][s];
    std::printf("full verification: %zu mismatching words out of %zu\n",
                mismatches, bank.rows() * bank.wordsPerRow());
    return mismatches == 0 ? 0 : 1;
}
