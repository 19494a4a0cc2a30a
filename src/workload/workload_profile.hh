/**
 * @file
 * Per-workload behavioural profiles for the CMP cache-hierarchy
 * simulation.
 *
 * The paper drives FLEXUS full-system simulation with commercial
 * (OLTP/DSS/Web) and scientific (Moldyn/Ocean/Sparse) workloads. We
 * do not have Solaris images or DB2; instead each workload is
 * characterized by the statistics that determine cache-port and
 * bandwidth behaviour — instruction mix, miss ratios, dirty-eviction
 * ratio and burstiness — calibrated so the per-100-cycle access mixes
 * match Figure 6. DESIGN.md documents this substitution.
 */

#ifndef TDC_WORKLOAD_WORKLOAD_PROFILE_HH
#define TDC_WORKLOAD_WORKLOAD_PROFILE_HH

#include <string>
#include <vector>

namespace tdc
{

/** Behavioural profile of one workload. */
struct WorkloadProfile
{
    std::string name;

    /** Fraction of instructions that are loads. */
    double loadFrac = 0.25;
    /** Fraction of instructions that are stores. */
    double storeFrac = 0.10;

    /** L1 I-cache miss probability per instruction. */
    double l1iMissRate = 0.005;
    /** L1 D-cache miss probability per data access. */
    double l1dMissRate = 0.03;
    /** L2 miss probability per L2 access. */
    double l2MissRate = 0.15;

    /** Probability a replaced L1 line is dirty (causes a write-back). */
    double dirtyEvictFrac = 0.30;

    /**
     * Probability that an L1 miss is served by dirty data in a peer
     * core's L1 (an L1-to-L1 transfer — one of the operations the
     * paper lists as directly affected by 2D coding). High for the
     * sharing-intensive commercial workloads.
     */
    double dirtySharedFrac = 0.05;

    /**
     * Probability that an instruction is preceded by pipeline bubbles
     * (dependency chains, branch redirects, FU conflicts). Encodes
     * the workload's ILP: commercial codes issue fewer instructions
     * per cycle than streaming scientific kernels. Bubbles are drawn
     * inside the instruction stream so baseline and protected runs
     * stay matched sample-for-sample.
     */
    double ilpBubbleProb = 0.55;

    /**
     * Two-state Markov burstiness: probability of switching from calm
     * to bursty and back, and the memory-intensity multiplier applied
     * while bursty. Commercial workloads are bursty; scientific ones
     * stream steadily.
     */
    double burstOnProb = 0.02;
    double burstOffProb = 0.10;
    double burstLoadBoost = 1.6;

    /** True for the scientific (streaming) workloads. */
    bool scientific = false;

    bool operator==(const WorkloadProfile &) const = default;
};

/**
 * The six workloads of Table 1, in the order the figures plot them:
 * OLTP (DB2), DSS (DB2), Web (Apache), Moldyn, Ocean, Sparse.
 */
const std::vector<WorkloadProfile> &standardWorkloads();

/** Find a standard workload by name (asserts on unknown name). */
const WorkloadProfile &workloadByName(const std::string &name);

} // namespace tdc

#endif // TDC_WORKLOAD_WORKLOAD_PROFILE_HH
