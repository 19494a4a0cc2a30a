/**
 * @file
 * The protection-scheme API. Every way the study protects an array —
 * conventional per-word ECC + interleaving, the paper's 2D coding,
 * write-through EDC, the related-work HV product code, chipkill DRAM
 * ranks — is one ProtectionScheme behind one registry, constructed
 * from a spec string:
 *
 *   spec     ::= family ":" body
 *   family   ::= "conv" | "2d" | "wt" | "prod" | "dram"
 *   conv/wt  ::= code "/i" degree opt*        ; e.g. conv:secded/i4
 *   2d       ::= code "/i" degree "+vp" rows opt*
 *                                             ; e.g. 2d:edc8/i4+vp32
 *   prod     ::= rows "x" cols                ; e.g. prod:256x256
 *   dram     ::= variant "/x" width dopt*     ; e.g. dram:chipkill/x4
 *   variant  ::= "chipkill" | "iecc+chipkill"
 *   opt      ::= "/w" word-bits | "/r" data-rows
 *   dopt     ::= "/r" rows-per-bank | "/b" banks | "/cols"
 *   code     ::= parity|edc8|edc16|edc32|secded|dected|qecped|oecned
 *
 * Tokens split with splitSpec and every number is plain decimal
 * digits read by SpecReader::digits (common/spec_reader.hh: no sign,
 * space or hex). spec() round-trips: parseScheme(s->spec())
 * reconstructs an equal scheme, and malformed specs throw
 * std::invalid_argument quoting the offending token. Campaign grids, the tdc_run driver, and tests all
 * name schemes exclusively through this grammar, so a new scenario is
 * data, not C++.
 */

#ifndef TDC_SCHEME_SCHEME_HH
#define TDC_SCHEME_SCHEME_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/fault.hh"
#include "core/twod_config.hh"
#include "reliability/lifetime.hh"     // DeviceSession + LifetimeResult
#include "reliability/result_cache.hh" // InjectionOutcome + ResultCache
#include "vlsi/scheme_overhead.hh"

namespace tdc
{

/**
 * One pluggable protection scheme: a name, a round-trippable spec
 * string, static cost figures, and one device model (openSession).
 * Concrete families (conv, 2d, wt, prod, dram) live behind the
 * registry; campaign code holds only SchemePtr handles.
 */
class ProtectionScheme
{
  public:
    virtual ~ProtectionScheme() = default;

    /** Display label, e.g. "SECDED+Intv4" or "2D(EDC8+Intv4,EDC32)". */
    virtual std::string name() const = 0;

    /** Canonical spec string; parseScheme(spec()) reconstructs *this. */
    virtual std::string spec() const = 0;

    /** Check-bit (+ vertical / product parity) storage, fraction of
     *  data bits, on the scheme's own array geometry. */
    virtual double storageOverhead() const = 0;

    /**
     * The family's device model (reliability/lifetime.hh): a fresh
     * protected array whose golden fill draws from @p rng. Injection
     * trials and lifetime missions both drive the device through this
     * one session, so the two can never disagree.
     */
    virtual std::unique_ptr<DeviceSession> openSession(Rng &rng) const = 0;

    /**
     * Run @p trials Monte-Carlo trials of one @p fault event. Trial t
     * seeds Rng(shardSeed(seed, t)), opens a session from it, injects
     * @p fault once with the same generator, and classifies the single
     * scrubAndVerify verdict. Trials shard over the worker pool and
     * reduce in trial order, so the outcome is a pure function of the
     * arguments — bit-identical at any TDC_THREADS setting.
     */
    InjectionOutcome injectAndRecover(const FaultModel &fault, int trials,
                                      uint64_t seed) const;

    /** A lifetime-engine session whose golden fill derives from
     *  @p seed: openSession on Rng(seed). */
    std::unique_ptr<DeviceSession> openLifetimeSession(uint64_t seed) const;

    /** True when the scheme has a VLSI cost model (costSpec() works). */
    virtual bool hasCostModel() const { return false; }

    /**
     * The vlsi/scheme_overhead description of this scheme, for
     * evaluateScheme/normalizeScheme (Figures 1(c) and 7). Throws
     * std::logic_error for families without a cost model (prod).
     */
    virtual SchemeSpec costSpec() const;
};

/** Shared immutable handle used across campaigns and the driver. */
using SchemePtr = std::shared_ptr<const ProtectionScheme>;

/**
 * injectAndRecover through the campaign result cache: the cell is
 * keyed by (scheme.spec(), fault.spec(), trials, seed) and memoized in
 * resultCache() — in memory always, on disk when a cache directory is
 * configured. Because injectAndRecover is a pure function of exactly
 * those arguments (counter-based seeding), the cached result is
 * bit-identical to a cold run at any TDC_THREADS setting.
 * Every figure campaign and the --optimize search evaluate injection
 * cells through this entry point.
 */
InjectionOutcome cachedInjectAndRecover(const ProtectionScheme &scheme,
                                        const FaultModel &fault,
                                        int trials, uint64_t seed);

/**
 * runLifetime over @p scheme through the campaign result cache:
 * params.schemeSpec is overwritten with scheme.spec() (the canonical
 * key axis) and the session factory is scheme.openLifetimeSession, so
 * the cell is a pure function of (scheme, mix, mission, scrub, spares,
 * trials, seed) and memoizes exactly like injection cells. Every
 * lifetime figure/custom grid evaluates through this entry point.
 */
LifetimeResult cachedSchemeLifetime(const ProtectionScheme &scheme,
                                    LifetimeParams params);

/**
 * normalizeScheme(scheme.costSpec(), reference, geom) through the
 * result cache, keyed by (scheme spec, reference spec, every geometry
 * field). The SRAM-optimizer search inside costSpec() dominates the
 * analytic figures (fig7) and the --optimize overhead axis, so both
 * share these entries. @p reference_spec must parse to a scheme with a
 * cost model (e.g. "conv:secded/i2").
 */
NormalizedOverhead cachedNormalizedCost(const ProtectionScheme &scheme,
                                        const std::string &reference_spec,
                                        const CacheGeometry &geom);

/** One built-in spec-string family ("conv", "2d", ...). */
struct SchemeFamily
{
    /** Family key, the text before ':' in a spec. */
    std::string key;

    /** One-line grammar, e.g. "conv:<code>/i<deg>[/w<bits>][/r<rows>]". */
    std::string grammar;

    /** What the family models (for --list-schemes). */
    std::string description;

    /** Canonical example specs; every one must parse and round-trip. */
    std::vector<std::string> examples;

    /**
     * Build a scheme from the body text after "key:". @p spec is the
     * full spec string for error messages. Must throw
     * std::invalid_argument on any malformed or out-of-range body.
     */
    std::function<SchemePtr(const std::string &body,
                            const std::string &spec)>
        parse;
};

/** The built-in families: conv, 2d, wt, prod, dram, in that order. */
const std::vector<SchemeFamily> &schemeFamilies();

/**
 * Parse @p spec through the registry. Throws std::invalid_argument
 * (offending token quoted) for unknown families, unknown codes,
 * malformed bodies, or out-of-range degrees/geometry.
 */
SchemePtr parseScheme(const std::string &spec);

/**
 * Parse a "2d:" spec straight to its bank configuration — for callers
 * that need the raw TwoDimConfig (e.g. the cache-service front end)
 * rather than the ProtectionScheme wrapper. Throws
 * std::invalid_argument (offending token quoted) on a malformed body
 * or a non-"2d" family.
 */
TwoDimConfig parseTwoDimConfig(const std::string &spec);

// --- Built-in family constructors (the registry uses these too) -----

/** conv: per-word @p code, @p degree-way interleaved. */
SchemePtr makeConventionalScheme(CodeKind code, size_t degree,
                                 size_t word_bits = 64, size_t rows = 256);

/** 2d: a TwoDimConfig bank (horizontal code + vertical parity). */
SchemePtr makeTwoDimScheme(const TwoDimConfig &config);

/** wt: EDC-only write-through L1 (cost model; injects like conv). */
SchemePtr makeWriteThroughScheme(CodeKind code, size_t degree,
                                 size_t word_bits = 64, size_t rows = 256);

/** prod: rows x cols HV product-code array. */
SchemePtr makeProductCodeScheme(size_t rows, size_t cols);

} // namespace tdc

#endif // TDC_SCHEME_SCHEME_HH
