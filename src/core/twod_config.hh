/**
 * @file
 * Configuration of a 2D-protected array: the horizontal code choice,
 * physical interleave degree, and vertical interleave factor.
 */

#ifndef TDC_CORE_TWOD_CONFIG_HH
#define TDC_CORE_TWOD_CONFIG_HH

#include <cstddef>
#include <string>

#include "ecc/code_factory.hh"

namespace tdc
{

/**
 * Parameters of one 2D-coded memory bank (Section 4 of the paper).
 *
 * The paper's two cache configurations:
 *  - L1: EDC8 horizontal over 64-bit words, 4-way interleaved,
 *        EDC32 vertical (32 parity rows per bank).
 *  - L2: EDC16 horizontal over 256-bit words, 2-way interleaved,
 *        EDC32 vertical.
 * Both guarantee detection+correction of clustered errors up to
 * 32x32 bits.
 */
struct TwoDimConfig
{
    /** Horizontal per-word code. */
    CodeKind horizontalKind = CodeKind::kEdc8;

    /** Data bits per logical word. */
    size_t wordBits = 64;

    /** Physical bit-interleave degree along rows. */
    size_t interleaveDegree = 4;

    /**
     * Vertical interleave factor V: number of parity rows per bank;
     * data row r belongs to parity group r mod V.
     */
    size_t verticalParityRows = 32;

    /** Data rows per bank. */
    size_t dataRows = 256;

    /** The paper's L1 configuration (EDC8+Intv4, EDC32). */
    static TwoDimConfig l1Default();

    /** The paper's L2 configuration (EDC16+Intv2, EDC32). */
    static TwoDimConfig l2Default();

    /** Guaranteed correctable cluster width (physical columns). */
    size_t clusterWidthCoverage() const;

    /** Guaranteed correctable cluster height (rows). */
    size_t clusterHeightCoverage() const { return verticalParityRows; }

    std::string describe() const;
};

} // namespace tdc

#endif // TDC_CORE_TWOD_CONFIG_HH
