#include "scheme/scheme.hh"

#include <algorithm>
#include <cctype>
#include <mutex>
#include <stdexcept>

#include "array/product_code_array.hh"
#include "array/protected_array.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/spec_reader.hh"
#include "core/line_codec.hh"
#include "core/twod_array.hh"
#include "scheme/dram_scheme.hh"

namespace tdc
{

InjectionOutcome
cachedInjectAndRecover(const ProtectionScheme &scheme,
                       const FaultModel &fault, int trials, uint64_t seed)
{
    const std::string key =
        injectionCacheKey(scheme.spec(), fault.spec(), trials, seed);
    return resultCache().outcome(
        key, [&] { return scheme.injectAndRecover(fault, trials, seed); });
}

NormalizedOverhead
cachedNormalizedCost(const ProtectionScheme &scheme,
                     const std::string &reference_spec,
                     const CacheGeometry &geom)
{
    const std::string key =
        "cost|scheme=" + scheme.spec() + "|ref=" + reference_spec +
        "|geom=" + std::to_string(geom.capacityBytes) + "/" +
        std::to_string(geom.wordBits) + "/" + std::to_string(geom.banks) +
        "/" + std::to_string(geom.writeFraction) + "/" +
        std::to_string(geom.nextLevelWriteCost);
    const std::vector<double> v = resultCache().reals(key, 3, [&] {
        const SchemeSpec reference =
            parseScheme(reference_spec)->costSpec();
        const NormalizedOverhead n =
            normalizeScheme(scheme.costSpec(), reference, geom);
        return std::vector<double>{n.area, n.latency, n.power};
    });
    NormalizedOverhead n;
    n.area = v[0];
    n.latency = v[1];
    n.power = v[2];
    return n;
}

LifetimeResult
cachedSchemeLifetime(const ProtectionScheme &scheme, LifetimeParams params)
{
    params.schemeSpec = scheme.spec();
    return cachedLifetime(params, [&scheme](uint64_t seed) {
        return scheme.openLifetimeSession(seed);
    });
}

InjectionOutcome
ProtectionScheme::injectAndRecover(const FaultModel &fault, int trials,
                                   uint64_t seed) const
{
    using Verdict = DeviceSession::Verdict;
    const size_t n = trials < 0 ? 0 : size_t(trials);
    std::vector<Verdict> verdicts(n);
    parallelFor(n, [&](size_t t) {
        Rng rng(shardSeed(seed, t));
        const std::unique_ptr<DeviceSession> session = openSession(rng);
        session->inject(fault, rng);
        verdicts[t] = session->scrubAndVerify();
    });
    InjectionOutcome out;
    for (const Verdict v : verdicts) {
        ++out.trials;
        out.corrected += v == Verdict::kCorrected;
        out.detectedOnly += v == Verdict::kDue;
        out.silent += v == Verdict::kSdc;
    }
    return out;
}

std::unique_ptr<DeviceSession>
ProtectionScheme::openLifetimeSession(uint64_t seed) const
{
    Rng rng(seed);
    return openSession(rng);
}

SchemeSpec
ProtectionScheme::costSpec() const
{
    throw std::logic_error("scheme \"" + spec() +
                           "\" has no VLSI cost model");
}

namespace
{

/** The reader every family parser reads @p spec's tokens with. */
SpecReader
schemeReader(const std::string &spec)
{
    return SpecReader("scheme spec \"" + spec + "\"");
}

/** Lowercased codeKindName: the single source of code spellings. */
std::string
codeToken(CodeKind kind)
{
    std::string label = codeKindName(kind);
    std::transform(label.begin(), label.end(), label.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return label;
}

/** Interleaved-parity class width of EDC kinds (0 = not an EDC code). */
size_t
edcClassWidth(CodeKind kind)
{
    switch (kind) {
      case CodeKind::kEdc8: return 8;
      case CodeKind::kEdc16: return 16;
      case CodeKind::kEdc32: return 32;
      default: return 0;
    }
}

/** The conv/wt/2d body: code, /i degree, optional /w bits, /r rows,
 *  and (2d only) +vp parity rows. */
struct BodyParams
{
    CodeKind code = CodeKind::kSecDed;
    size_t degree = 0;
    size_t wordBits = 64;
    size_t rows = 256;
    size_t verticalRows = 32;
};

BodyParams
parseBody(const std::string &body, const std::string &spec, bool allow_vp)
{
    // Tokens separate on '/' and '+' equally ("i4+vp32" == "i4/vp32").
    const std::vector<std::string> tokens = splitSpec(body, "/+");
    const SpecReader in = schemeReader(spec);

    BodyParams p;
    try {
        p.code = parseCodeKind(tokens.front());
    } catch (const std::invalid_argument &e) {
        in.fail(e.what());
    }

    bool have_degree = false;
    for (size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok.rfind("vp", 0) == 0 && allow_vp) {
            p.verticalRows = in.digits(tok, tok.substr(2), 1, 4096);
        } else if (tok.rfind("i", 0) == 0) {
            p.degree = in.digits(tok, tok.substr(1), 1, 64);
            have_degree = true;
        } else if (tok.rfind("w", 0) == 0) {
            p.wordBits = in.digits(tok, tok.substr(1), 8, 512);
        } else if (tok.rfind("r", 0) == 0) {
            p.rows = in.digits(tok, tok.substr(1), 1, 65536);
        } else {
            in.fail("unknown token \"" + tok + "\"");
        }
    }
    if (!have_degree)
        in.fail("missing interleave degree (\"/i<deg>\")");
    if (const size_t n = edcClassWidth(p.code);
        n != 0 && p.wordBits % n != 0)
        in.fail("word width " + std::to_string(p.wordBits) +
                " is not a multiple of the \"" + codeToken(p.code) +
                "\" class width " + std::to_string(n));
    if (allow_vp && p.verticalRows > p.rows)
        in.fail("vertical parity rows \"vp" +
                std::to_string(p.verticalRows) + "\" exceed the bank's " +
                std::to_string(p.rows) + " data rows");
    return p;
}

/** Append the non-default geometry suffix shared by conv/wt/2d. */
std::string
geometrySuffix(size_t word_bits, size_t rows)
{
    std::string out;
    if (word_bits != 64)
        out += "/w" + std::to_string(word_bits);
    if (rows != 256)
        out += "/r" + std::to_string(rows);
    return out;
}

// --- Device sessions ------------------------------------------------
//
// One DeviceSession per family: the only device model. Injection
// trials (ProtectionScheme::injectAndRecover) drive a session through
// one inject + scrubAndVerify; the lifetime engine drives it over
// mission time.

/** @p bits of golden data, drawn 64 bits at a time from @p rng. */
BitVector
randomWord(size_t bits, Rng &rng)
{
    BitVector d(bits);
    for (size_t w = 0; w < bits; w += 64)
        d.setBits(w, rng.next(), std::min<size_t>(64, bits - w));
    return d;
}

/**
 * A session's golden content, one encoded line per row: row r holds
 * degree data words drawn from @p rng row by row, slot by slot (each
 * as randomWord draws it), encoded and interleaved by a LineCodec.
 * Fill, repair and verify all work a line at a time against it.
 * Holds references to the code and map; both must outlive it.
 */
class GoldenLines
{
  public:
    GoldenLines(const Code &code, const InterleaveMap &map, size_t rows,
                Rng &rng)
        : code(code), map(map), lines(rows, BitVector(map.rowBits()))
    {
        const LineCodec codec(code, map);
        std::vector<BitVector> words(map.degree());
        for (BitVector &line : lines) {
            for (BitVector &w : words)
                w = randomWord(code.dataBits(), rng);
            codec.encodeLine(words, line);
        }
    }

    const BitVector &line(size_t row) const { return lines[row]; }

    /** Golden data word @p slot of @p row: its codeword's data bits
     *  (codewords are laid out [data | check]). */
    BitVector word(size_t row, size_t slot) const
    {
        return map.extractWord(lines[row], slot).slice(0, code.dataBits());
    }

  private:
    const Code &code;
    const InterleaveMap &map;
    std::vector<BitVector> lines;
};

/**
 * Verify @p arr's words against @p golden in row, then slot order. A
 * row whose visible content equals its golden line is skipped: its
 * reads would decode clean to the golden data, request no recovery
 * and write nothing back. Every other row is read word by word, so a
 * recovery or in-line correction happens exactly where a word-by-word
 * pass would request it. @p due seeds the detected-loss flag.
 */
template <class Array>
DeviceSession::Verdict
verifyLines(Array &arr, const GoldenLines &golden, bool due)
{
    using Verdict = DeviceSession::Verdict;
    bool silent = false;
    for (size_t r = 0; r < arr.rows(); ++r) {
        if (arr.cells().rowEquals(r, golden.line(r)))
            continue;
        for (size_t slot = 0; slot < arr.wordsPerRow(); ++slot) {
            const AccessResult res = arr.readWord(r, slot);
            if (!res.ok())
                due = true;
            else if (res.data != golden.word(r, slot))
                silent = true;
        }
    }
    // A silently wrong word dominates: the device lost data without
    // flagging it somewhere, however many words it also detected.
    return silent ? Verdict::kSdc
           : due  ? Verdict::kDue
                  : Verdict::kCorrected;
}

/** conv/wt session: a ProtectedArray, scrubbed by the verify pass's
 *  reads (in-line correction is the conventional scrub). */
class ConvSession final : public DeviceSession
{
  public:
    ConvSession(CodePtr code, size_t degree, size_t rows, Rng &rng)
        : arr(rows, std::move(code), degree),
          golden(arr.code(), arr.interleave(), arr.rows(), rng)
    {
        for (size_t r = 0; r < arr.rows(); ++r)
            arr.writeLine(r, golden.line(r));
    }

    MemoryArray &cells() override { return arr.cells(); }

    Verdict scrubAndVerify() override
    {
        return verifyLines(arr, golden, false);
    }

    void repairRow(size_t row) override
    {
        arr.cells().clearRowFaults(row);
        arr.writeLine(row, golden.line(row));
    }

  private:
    ProtectedArray arr;
    GoldenLines golden;
};

/** 2d session: a TwoDimArray bank; scrub runs the Figure 4(b)
 *  recovery process, then the verify pass checks every row. */
class TwoDimSession final : public DeviceSession
{
  public:
    TwoDimSession(const TwoDimConfig &config, CodePtr horizontal, Rng &rng)
        : arr(config, std::move(horizontal)),
          golden(arr.code(), arr.interleave(), arr.rows(), rng)
    {
        for (size_t r = 0; r < arr.rows(); ++r)
            arr.writeLine(r, golden.line(r));
    }

    MemoryArray &cells() override { return arr.cells(); }

    Verdict scrubAndVerify() override
    {
        return verifyLines(arr, golden, !arr.scrub());
    }

    void repairRow(size_t row) override
    {
        // clearRowFaults preserves visible values, so the vertical
        // parity stays consistent; rewriting the golden line through
        // writeLine then maintains it incrementally as usual.
        arr.cells().clearRowFaults(row);
        arr.writeLine(row, golden.line(row));
    }

  private:
    TwoDimArray arr;
    GoldenLines golden;
};

/** prod session: an HV product-code array; scrub is checkAndCorrect
 *  plus a row-readback comparison against the golden rows. */
class ProdSession final : public DeviceSession
{
  public:
    ProdSession(size_t rows, size_t cols, Rng &rng) : arr(rows, cols)
    {
        golden.reserve(rows);
        for (size_t r = 0; r < rows; ++r) {
            golden.push_back(randomWord(cols, rng));
            arr.writeRow(r, golden.back());
        }
    }

    MemoryArray &cells() override { return arr.cells(); }

    Verdict scrubAndVerify() override
    {
        const ProductCodeReport rep = arr.checkAndCorrect();
        bool matches = true;
        for (size_t r = 0; r < arr.rows() && matches; ++r)
            matches = arr.readRow(r) == golden[r];
        if (rep.clean && matches)
            return Verdict::kCorrected;
        return rep.clean ? Verdict::kSdc : Verdict::kDue;
    }

    void repairRow(size_t row) override
    {
        arr.cells().clearRowFaults(row);
        arr.writeRow(row, golden[row]);
    }

  private:
    ProductCodeArray arr;
    std::vector<BitVector> golden;
};

// --- conv / wt ------------------------------------------------------

/**
 * A scheme's horizontal code, built on first use and from then on
 * shared by every session the scheme opens, on any worker thread
 * (codes have no mutable state). Built lazily so that a scheme parsed
 * only for its name, cost or cached results never builds one.
 */
class SharedCode
{
  public:
    SharedCode(CodeKind kind, size_t data_bits)
        : kind(kind), dataBits(data_bits)
    {
    }

    const CodePtr &get() const
    {
        std::call_once(built, [this] { code = makeCode(kind, dataBits); });
        return code;
    }

  private:
    CodeKind kind;
    size_t dataBits;
    mutable std::once_flag built;
    mutable CodePtr code;
};

/**
 * Conventional 1D protection: per-word code + physical interleaving
 * on a ProtectedArray. Also the injection backend of wt (the
 * write-through L1 array is the same EDC-coded array; duplication
 * into the next level only changes the cost model).
 */
class ConventionalScheme : public ProtectionScheme
{
  public:
    ConventionalScheme(CodeKind code, size_t degree, size_t word_bits,
                       size_t rows, bool write_through)
        : code_(code), degree_(degree), wordBits_(word_bits), rows_(rows),
          writeThrough_(write_through), horizontal_(code, word_bits)
    {
    }

    std::string name() const override
    {
        const std::string base =
            codeKindName(code_) + "+Intv" + std::to_string(degree_);
        return writeThrough_ ? base + "(Wr-through)" : base;
    }

    std::string spec() const override
    {
        return std::string(writeThrough_ ? "wt:" : "conv:") +
               codeToken(code_) + "/i" + std::to_string(degree_) +
               geometrySuffix(wordBits_, rows_);
    }

    double storageOverhead() const override
    {
        return horizontal_.get()->storageOverhead();
    }

    bool hasCostModel() const override { return true; }

    SchemeSpec costSpec() const override
    {
        return writeThrough_ ? SchemeSpec::writeThrough(code_, degree_)
                             : SchemeSpec::conventional(code_, degree_);
    }

    std::unique_ptr<DeviceSession> openSession(Rng &rng) const override
    {
        return std::make_unique<ConvSession>(horizontal_.get(), degree_,
                                             rows_, rng);
    }

  private:
    CodeKind code_;
    size_t degree_;
    size_t wordBits_;
    size_t rows_;
    bool writeThrough_;
    SharedCode horizontal_;
};

// --- 2d -------------------------------------------------------------

/** The paper's 2D coding bank (horizontal code + vertical parity). */
class TwoDimScheme : public ProtectionScheme
{
  public:
    explicit TwoDimScheme(const TwoDimConfig &config)
        : config_(config),
          horizontal_(config.horizontalKind, config.wordBits)
    {
    }

    std::string name() const override
    {
        return "2D(" + codeKindName(config_.horizontalKind) + "+Intv" +
               std::to_string(config_.interleaveDegree) + ",EDC" +
               std::to_string(config_.verticalParityRows) + ")";
    }

    std::string spec() const override
    {
        return "2d:" + codeToken(config_.horizontalKind) + "/i" +
               std::to_string(config_.interleaveDegree) + "+vp" +
               std::to_string(config_.verticalParityRows) +
               geometrySuffix(config_.wordBits, config_.dataRows);
    }

    double storageOverhead() const override
    {
        return TwoDimArray(config_, horizontal_.get()).storageOverhead();
    }

    bool hasCostModel() const override { return true; }

    SchemeSpec costSpec() const override
    {
        return SchemeSpec::twoDim(config_.horizontalKind,
                                  config_.interleaveDegree,
                                  config_.verticalParityRows);
    }

    std::unique_ptr<DeviceSession> openSession(Rng &rng) const override
    {
        return std::make_unique<TwoDimSession>(config_, horizontal_.get(),
                                               rng);
    }

  private:
    TwoDimConfig config_;
    SharedCode horizontal_;
};

// --- prod -----------------------------------------------------------

/** Related-work HV product code (one parity row + column per array). */
class ProductCodeScheme : public ProtectionScheme
{
  public:
    ProductCodeScheme(size_t rows, size_t cols) : rows_(rows), cols_(cols)
    {
    }

    std::string name() const override
    {
        return "HVProd(" + std::to_string(rows_) + "x" +
               std::to_string(cols_) + ")";
    }

    std::string spec() const override
    {
        return "prod:" + std::to_string(rows_) + "x" +
               std::to_string(cols_);
    }

    double storageOverhead() const override
    {
        return double(rows_ + cols_) / double(rows_ * cols_);
    }

    std::unique_ptr<DeviceSession> openSession(Rng &rng) const override
    {
        return std::make_unique<ProdSession>(rows_, cols_, rng);
    }

  private:
    size_t rows_;
    size_t cols_;
};

// --- Registry -------------------------------------------------------

std::vector<SchemeFamily>
builtinFamilies()
{
    std::vector<SchemeFamily> families;

    families.push_back(
        {"conv", "conv:<code>/i<deg>[/w<bits>][/r<rows>]",
         "conventional per-word code + physical interleaving",
         {"conv:secded/i4", "conv:oecned/i4", "conv:dected/i16",
          "conv:qecped/i8", "conv:secded/i2/w256"},
         [](const std::string &body, const std::string &spec) {
             const BodyParams p = parseBody(body, spec, false);
             return makeConventionalScheme(p.code, p.degree, p.wordBits,
                                           p.rows);
         }});

    families.push_back(
        {"2d", "2d:<code>/i<deg>+vp<rows>[/w<bits>][/r<rows>]",
         "the paper's 2D coding: horizontal code + interleave + "
         "vertical parity",
         {"2d:edc8/i4+vp32", "2d:edc16/i2+vp32/w256",
          "2d:secded/i4+vp32"},
         [](const std::string &, const std::string &spec) {
             return makeTwoDimScheme(parseTwoDimConfig(spec));
         }});

    families.push_back(
        {"wt", "wt:<code>/i<deg>[/w<bits>][/r<rows>]",
         "EDC-only write-through L1 duplicating stores into the next "
         "level",
         {"wt:edc8/i4"},
         [](const std::string &body, const std::string &spec) {
             const BodyParams p = parseBody(body, spec, false);
             return makeWriteThroughScheme(p.code, p.degree, p.wordBits,
                                           p.rows);
         }});

    families.push_back(
        {"prod", "prod:<rows>x<cols>",
         "related-work HV product code (horizontal + vertical parity)",
         {"prod:256x256", "prod:64x64"},
         [](const std::string &body, const std::string &spec) {
             const SpecReader in = schemeReader(spec);
             const size_t x = body.find('x');
             if (x == std::string::npos)
                 in.fail("expected \"<rows>x<cols>\", got \"" + body +
                         "\"");
             const size_t rows = in.digits(body, body.substr(0, x), 2, 4096);
             const size_t cols =
                 in.digits(body, body.substr(x + 1), 2, 4096);
             return makeProductCodeScheme(rows, cols);
         }});

    families.push_back(dramSchemeFamily());

    return families;
}

} // namespace

const std::vector<SchemeFamily> &
schemeFamilies()
{
    static const std::vector<SchemeFamily> families = builtinFamilies();
    return families;
}

SchemePtr
parseScheme(const std::string &spec)
{
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        schemeReader(spec).fail("missing \":\" after the family");
    const std::string key = spec.substr(0, colon);
    for (const SchemeFamily &family : schemeFamilies()) {
        if (family.key == key)
            return family.parse(spec.substr(colon + 1), spec);
    }
    schemeReader(spec).fail("unknown family \"" + key + "\"");
}

TwoDimConfig
parseTwoDimConfig(const std::string &spec)
{
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        schemeReader(spec).fail("missing \":\" after the family");
    if (spec.substr(0, colon) != "2d")
        schemeReader(spec).fail("family \"" + spec.substr(0, colon) +
                                "\" has no bank configuration (need \"2d\")");
    const BodyParams p = parseBody(spec.substr(colon + 1), spec, true);
    TwoDimConfig cfg;
    cfg.horizontalKind = p.code;
    cfg.interleaveDegree = p.degree;
    cfg.wordBits = p.wordBits;
    cfg.dataRows = p.rows;
    cfg.verticalParityRows = p.verticalRows;
    return cfg;
}

SchemePtr
makeConventionalScheme(CodeKind code, size_t degree, size_t word_bits,
                       size_t rows)
{
    return std::make_shared<ConventionalScheme>(code, degree, word_bits,
                                                rows, false);
}

SchemePtr
makeTwoDimScheme(const TwoDimConfig &config)
{
    return std::make_shared<TwoDimScheme>(config);
}

SchemePtr
makeWriteThroughScheme(CodeKind code, size_t degree, size_t word_bits,
                       size_t rows)
{
    return std::make_shared<ConventionalScheme>(code, degree, word_bits,
                                                rows, true);
}

SchemePtr
makeProductCodeScheme(size_t rows, size_t cols)
{
    return std::make_shared<ProductCodeScheme>(rows, cols);
}

} // namespace tdc
