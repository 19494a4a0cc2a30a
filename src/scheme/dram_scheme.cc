#include "scheme/dram_scheme.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/spec_reader.hh"
#include "dram/chip_iecc.hh"
#include "ecc/reed_solomon.hh"

namespace tdc
{

namespace
{

/** Data chips per rank: 12 for x4 (RS(15,12)), 8 for x8 (RS(11,8)). */
size_t
dataChipsForWidth(size_t symbol_bits)
{
    return symbol_bits == 4 ? 12 : 8;
}

/** Golden content + side-stored IECC check words of one rank. */
struct RankState
{
    /** golden[row] = the encoded codeword the rank was filled with. */
    std::vector<std::vector<uint32_t>> golden;

    /** checks[row][chip] = IECC check word (IECC variant only). */
    std::vector<std::vector<uint32_t>> checks;
};

/**
 * Fill @p dram with random data symbols, RS-encode every row, and
 * (for IECC) compute the per-chip check words — the golden state the
 * session verifies against.
 */
RankState
fillRank(DramArray &dram, const SymbolRsCode &rs, const ChipSecded *iecc,
         Rng &rng)
{
    const DramGeometry &g = dram.geometry();
    RankState state;
    state.golden.assign(g.rows(), std::vector<uint32_t>(g.chips, 0));
    if (iecc)
        state.checks.assign(g.rows(), std::vector<uint32_t>(g.chips, 0));
    const uint64_t symbols = uint64_t(1) << g.symbolBits;
    for (size_t r = 0; r < g.rows(); ++r) {
        std::vector<uint32_t> &word = state.golden[r];
        for (size_t i = SymbolRsCode::kCheckSymbols; i < g.chips; ++i)
            word[i] = uint32_t(rng.nextBelow(symbols));
        rs.encode(word);
        dram.writeCodeword(r, word);
        if (iecc)
            for (size_t i = 0; i < g.chips; ++i)
                state.checks[r][i] = iecc->encode(word[i]);
    }
    return state;
}

/**
 * One scrub pass over every row: IECC pre-pass (in-chip corrections +
 * chip-erasure flags), then the rank-level SSC-DSD decode (erasure
 * mode when exactly one chip is flagged dead or erased), write-back of
 * corrected words, and verification of the *delivered* word against
 * golden. @p dead_chips adds known-dead chips to each row's erasures;
 * @p chip_hits accumulates, per chip, the number of
 * rows whose rank-level correction touched it — the observable the
 * session's dead-chip detector integrates.
 */
void
scrubRank(DramArray &dram, const SymbolRsCode &rs, const ChipSecded *iecc,
          const RankState &state, const std::set<size_t> &dead_chips,
          std::vector<size_t> &chip_hits, bool &due, bool &silent)
{
    const DramGeometry &g = dram.geometry();
    std::vector<uint32_t> word;
    for (size_t r = 0; r < g.rows(); ++r) {
        word = dram.readCodeword(r);
        std::vector<size_t> erasures;
        bool changed = false;
        if (iecc) {
            for (size_t i = 0; i < g.chips; ++i) {
                const uint32_t before = word[i];
                const DecodeStatus st =
                    iecc->decode(word[i], state.checks[r][i]);
                changed |= word[i] != before;
                if (st == DecodeStatus::kDetectedUncorrectable)
                    erasures.push_back(i);
            }
        }
        for (size_t chip : dead_chips)
            if (std::find(erasures.begin(), erasures.end(), chip) ==
                erasures.end())
                erasures.push_back(chip);

        SymbolDecodeResult res;
        if (erasures.empty())
            res = rs.decode(word);
        else if (erasures.size() == 1)
            res = rs.decodeErasure(word, erasures.front());
        else
            res.status = DecodeStatus::kDetectedUncorrectable;

        if (res.uncorrectable()) {
            due = true;
            continue;
        }
        if (res.corrected()) {
            changed = true;
            for (const auto &[pos, value] : res.corrections) {
                (void)value;
                ++chip_hits[pos];
            }
        }
        if (changed)
            dram.writeCodeword(r, word);
        if (word != state.golden[r])
            silent = true;
    }
}

/**
 * Lifetime session over one rank. Repair units are chips (default) or
 * columns ("/cols"); a chip whose rank-level corrections dominated two
 * consecutive scrub passes is declared dead and becomes a standing
 * erasure, so a later fault on a second chip still decodes (the
 * chipkill ride-through). Repairing a chip clears its dead mark.
 */
class DramSession final : public DeviceSession
{
  public:
    DramSession(const DramSchemeConfig &config, Rng &rng)
        : cfg(config), dram(config.geometry),
          rs(config.geometry.symbolBits,
             config.geometry.chips - SymbolRsCode::kCheckSymbols),
          iecc(config.iecc
                   ? std::make_unique<ChipSecded>(config.geometry.symbolBits)
                   : nullptr),
          streak(config.geometry.chips, 0)
    {
        state = fillRank(dram, rs, iecc.get(), rng);
    }

    MemoryArray &cells() override { return dram.cells(); }

    Verdict scrubAndVerify() override
    {
        bool due = false, silent = false;
        std::vector<size_t> hits(cfg.geometry.chips, 0);
        scrubRank(dram, rs, iecc.get(), state, dead, hits, due, silent);
        // Dead-chip detector: a chip corrected in at least half the
        // rows "dominated" the pass; two consecutive dominated passes
        // (a transient kill heals after one) declare it dead.
        for (size_t i = 0; i < hits.size(); ++i) {
            if (2 * hits[i] >= cfg.geometry.rows()) {
                if (++streak[i] >= 2)
                    dead.insert(i);
            } else {
                streak[i] = 0;
            }
        }
        if (silent)
            return Verdict::kSdc;
        return due ? Verdict::kDue : Verdict::kCorrected;
    }

    std::vector<std::pair<size_t, size_t>> stuckRows() override
    {
        return cfg.columnRepair ? dram.stuckColumns() : dram.stuckChips();
    }

    void repairRow(size_t unit) override
    {
        if (cfg.columnRepair) {
            dram.repairColumn(unit);
            const size_t chip = dram.chipOfCol(unit);
            const size_t bit = unit % cfg.geometry.symbolBits;
            for (size_t r = 0; r < cfg.geometry.rows(); ++r)
                dram.cells().writeBit(
                    r, unit, (state.golden[r][chip] >> bit) & 1u);
        } else {
            dram.repairChip(unit);
            for (size_t r = 0; r < cfg.geometry.rows(); ++r)
                dram.writeSymbol(r, unit, state.golden[r][unit]);
            dead.erase(unit);
            streak[unit] = 0;
        }
    }

  private:
    DramSchemeConfig cfg;
    DramArray dram;
    SymbolRsCode rs;
    std::unique_ptr<ChipSecded> iecc;
    RankState state;
    std::set<size_t> dead;
    std::vector<size_t> streak;
};

class DramScheme final : public ProtectionScheme
{
  public:
    explicit DramScheme(const DramSchemeConfig &config)
        : cfg(config),
          rs(config.geometry.symbolBits,
             config.geometry.chips - SymbolRsCode::kCheckSymbols)
    {
    }

    std::string name() const override
    {
        const size_t n = cfg.geometry.chips;
        return std::string(cfg.iecc ? "IECC+" : "") + "Chipkill(x" +
               std::to_string(cfg.geometry.symbolBits) + ",RS" +
               std::to_string(n) + "/" +
               std::to_string(n - SymbolRsCode::kCheckSymbols) + ")";
    }

    std::string spec() const override
    {
        std::string s = std::string("dram:") +
                        (cfg.iecc ? "iecc+chipkill" : "chipkill") + "/x" +
                        std::to_string(cfg.geometry.symbolBits);
        if (cfg.geometry.rowsPerBank != 32)
            s += "/r" + std::to_string(cfg.geometry.rowsPerBank);
        if (cfg.geometry.banks != 2)
            s += "/b" + std::to_string(cfg.geometry.banks);
        if (cfg.columnRepair)
            s += "/cols";
        return s;
    }

    double storageOverhead() const override
    {
        const size_t b = cfg.geometry.symbolBits;
        const size_t data = rs.dataSymbols() * b;
        double check = double(SymbolRsCode::kCheckSymbols * b);
        if (cfg.iecc)
            check += double(cfg.geometry.chips *
                            ChipSecded(unsigned(b)).checkBits());
        return check / double(data);
    }

    std::unique_ptr<DeviceSession> openSession(Rng &rng) const override
    {
        return std::make_unique<DramSession>(cfg, rng);
    }

  private:
    DramSchemeConfig cfg;
    SymbolRsCode rs;
};

} // namespace

SchemePtr
makeDramScheme(const DramSchemeConfig &config)
{
    return std::make_shared<DramScheme>(config);
}

SchemeFamily
dramSchemeFamily()
{
    SchemeFamily family;
    family.key = "dram";
    family.grammar =
        "dram:{chipkill|iecc+chipkill}/x{4|8}[/r<rows>][/b<banks>][/cols]";
    family.description =
        "DRAM rank with RS/SSC-DSD chipkill (x4: 12+3 chips, x8: 8+3 "
        "chips), optionally per-chip IECC SEC-DED feeding chip erasures; "
        "/cols repairs spare columns instead of spare chips";
    family.examples = {"dram:chipkill/x4", "dram:iecc+chipkill/x8",
                       "dram:chipkill/x8/r16/b4/cols"};
    family.parse = [](const std::string &body, const std::string &spec) {
        const std::vector<std::string> tokens = splitSpec(body, "/");
        const SpecReader in("scheme spec \"" + spec + "\"");

        DramSchemeConfig cfg;
        if (tokens.front() == "chipkill")
            cfg.iecc = false;
        else if (tokens.front() == "iecc+chipkill")
            cfg.iecc = true;
        else
            in.fail("unknown dram variant \"" + tokens.front() +
                    "\" (chipkill | iecc+chipkill)");

        bool have_width = false;
        for (size_t i = 1; i < tokens.size(); ++i) {
            const std::string &tok = tokens[i];
            if (tok == "x4" || tok == "x8") {
                cfg.geometry.symbolBits = tok == "x4" ? 4 : 8;
                have_width = true;
            } else if (tok == "cols") {
                cfg.columnRepair = true;
            } else if (tok.rfind("r", 0) == 0) {
                cfg.geometry.rowsPerBank =
                    in.digits(tok, tok.substr(1), 1, 4096);
            } else if (tok.rfind("b", 0) == 0) {
                cfg.geometry.banks = in.digits(tok, tok.substr(1), 1, 64);
            } else {
                in.fail("unknown token \"" + tok + "\"");
            }
        }
        if (!have_width)
            in.fail("missing device width (\"/x4\" or \"/x8\")");
        cfg.geometry.chips = dataChipsForWidth(cfg.geometry.symbolBits) +
                             SymbolRsCode::kCheckSymbols;
        return makeDramScheme(cfg);
    };
    return family;
}

} // namespace tdc
