/**
 * @file
 * The two Table-1 machine configurations: the "fat" out-of-order CMP
 * and the "lean" in-order multithreaded CMP.
 */

#ifndef TDC_CPU_CMP_CONFIG_HH
#define TDC_CPU_CMP_CONFIG_HH

#include <cstddef>
#include <string>

namespace tdc
{

/** Machine description (timing-relevant subset of Table 1). */
struct CmpConfig
{
    std::string name = "cmp";

    unsigned cores = 4;
    /** Superscalar issue width per core. */
    unsigned issueWidth = 4;
    /** true = OoO with a reorder window; false = in-order blocking. */
    bool outOfOrder = true;
    /** Hardware threads per core (in-order cores only). */
    unsigned threadsPerCore = 1;
    /** In-flight window (ROB) entries available to hide load misses. */
    unsigned robSize = 64;
    /** Store queue entries per core. */
    unsigned storeQueue = 64;

    /** L1 D-cache ports per core. */
    unsigned l1Ports = 2;
    /** L1 hit latency (cycles). */
    unsigned l1HitLatency = 2;

    /** Shared L2: banks, per-bank ports = 1. */
    unsigned l2Banks = 4;
    /** L2 hit latency incl. crossbar (cycles). */
    unsigned l2HitLatency = 16;
    /** Cycles an L2 bank stays busy per operation (tag + data beats). */
    unsigned l2BankBusy = 4;
    /**
     * Issue slots lost per cycle of extra load latency from L1 port
     * contention (load-to-use sensitivity of the pipeline). OoO cores
     * partially hide it; in-order cores block the thread instead.
     */
    unsigned loadUseSlots = 2;

    /**
     * Multiplier on workload ILP bubbles for in-order pipelines:
     * without reordering, dependency stalls that an OoO core would
     * hide serialize the thread.
     */
    double bubbleScale = 1.0;

    /** Port-stealing lookback window (store-queue residency). */
    unsigned stealWindow = 12;

    /** Main memory latency (cycles @ 4 GHz, 60 ns). */
    unsigned memLatency = 240;

    /** MSHRs per core (outstanding L1 misses). */
    unsigned mshrs = 16;

    /**
     * The "fat" CMP: four 4-wide OoO cores, 2-port L1D, 16MB shared
     * L2 (16-cycle hit).
     */
    static CmpConfig fat();

    /**
     * The "lean" CMP: eight 2-wide in-order 4-thread cores, 1-port
     * L1D, 4MB shared L2 (12-cycle hit).
     */
    static CmpConfig lean();

    bool operator==(const CmpConfig &) const = default;
};

/** Which caches carry 2D protection in a simulation run. */
struct ProtectionConfig
{
    /** 2D-protect the L1 data caches (read-before-write on stores
     *  and fills). */
    bool l1TwoDim = false;
    /** Use port stealing for the L1 read-before-write reads. */
    bool l1PortStealing = false;
    /** 2D-protect the shared L2 (read-before-write on write-backs
     *  and fills). */
    bool l2TwoDim = false;
    /**
     * Alternative L1 protection: EDC-only write-through L1 that
     * duplicates every store into the (multi-bit tolerant) L2 — the
     * scheme many commercial processors use and the paper's Figure 7
     * right-most bar. Mutually exclusive with l1TwoDim.
     */
    bool l1WriteThrough = false;

    static ProtectionConfig none() { return {}; }
    static ProtectionConfig l1Only(bool stealing)
    {
        return {true, stealing, false, false};
    }
    static ProtectionConfig full(bool stealing = true)
    {
        return {true, stealing, true, false};
    }
    /** Write-through L1 over a 2D-protected L2. */
    static ProtectionConfig writeThroughL1()
    {
        return {false, false, true, true};
    }

    std::string label() const;

    /**
     * Parse a protection spec: "none" | "wt" (write-through L1 over a
     * 2D L2) | "+"-joined tokens from {l1, steal, l2}, e.g. "l1+steal",
     * "l1+steal+l2". Throws std::invalid_argument quoting an unknown
     * token ("steal" without "l1" is also rejected).
     */
    static ProtectionConfig parse(const std::string &spec);

    bool operator==(const ProtectionConfig &) const = default;
};

} // namespace tdc

#endif // TDC_CPU_CMP_CONFIG_HH
