/**
 * @file
 * The tdc_run CLI driver: one entry point for every figure of the
 * study and every scheme x fault x workload scenario the spec-string
 * grammars can express. bench/tdc_run.cc is the binary's main (a bare
 * tdcRunMain call); the figures are the built-in figureList() table
 * in figures.cc, selected with --figure.
 *
 *   tdc_run --figure fig3                      # any built-in figure
 *   tdc_run --scheme 2d:edc16/i2+vp32/w256 \
 *           --scheme conv:oecned/i4 \
 *           --fault 32x32 --events 1e3         # custom injection grid
 *   tdc_run --machine lean --protection l1+steal+l2 \
 *           --workload OLTP --cycles 2e5       # custom IPC grid
 *   tdc_run --optimize "2d:edc{8,16,32}/i{1..8..x2}+vp32" \
 *           --objective storage                # Pareto autotuner
 *   tdc_run --list-figures | --list-schemes | --list-faults
 *   tdc_run --figure fig7 --format csv         # table | csv | json
 *   tdc_run --figure fig3 --threads 8          # worker-pool override
 *   tdc_run --figure fig3 --cache-dir .cache \
 *           --cache-stats                      # persistent result cache
 */

#ifndef TDC_DRIVER_TDC_RUN_HH
#define TDC_DRIVER_TDC_RUN_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "reliability/campaign.hh"
#include "reliability/result_cache.hh"

namespace tdc
{

/** Output format of a driver run. */
enum class RunFormat
{
    kTable, ///< The figures' native prose + aligned tables (default).
    kCsv,   ///< Tables only, one CSV block per table.
    kJson,  ///< One JSON document listing every table.
};

/**
 * Sink the figure implementations write through. In table format,
 * prose() and table() reproduce the historical bench output byte for
 * byte; csv/json keep only the structured tables.
 */
class RunContext
{
  public:
    explicit RunContext(RunFormat format) : format_(format) {}

    /** Verbatim commentary; dropped outside table format. */
    void prose(const std::string &text);

    /** printf-style convenience over prose(). */
    void prosef(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /** Emit one campaign table (title taken from the result). */
    void table(const CampaignResult &result);

    /** Emit one raw table with an optional title. */
    void table(const Table &t, const std::string &title = "");

    RunFormat format() const { return format_; }

    /**
     * Attach the run's result-cache counters (--cache-stats): a
     * trailing "cache: ..." line in table format, a "# cache: ..."
     * comment in csv, a top-level "cache" object in json.
     */
    void cacheStats(const CacheStats &stats) { cacheStats_ = stats; }

    /** Everything emitted so far, rendered in the run's format. */
    std::string str() const;

  private:
    struct Emitted
    {
        std::string title;
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
    };

    RunFormat format_;
    std::string text_;             ///< table-format byte stream
    std::vector<Emitted> tables_;  ///< structured stream for csv/json
    std::optional<CacheStats> cacheStats_;
};

/** One built-in figure: key, one-line summary, implementation. */
struct FigureDef
{
    std::string key;         ///< "--figure" operand, e.g. "fig3"
    std::string description; ///< one line for --list-figures
    std::function<void(RunContext &)> run;
};

/** Every built-in figure (figures.cc), in --list-figures order. */
const std::vector<FigureDef> &figureList();

/**
 * Run the driver on @p args (argv without the program name), appending
 * all output to @p out (errors go to @p err). Returns the process exit
 * code: 0 on success, 2 on usage errors (unknown flags, malformed
 * specs, unknown figures).
 */
int tdcRun(const std::vector<std::string> &args, std::string &out,
           std::string &err);

/** tdcRun + stdout/stderr printing: the main() body of tdc_run. */
int tdcRunMain(const std::vector<std::string> &args);

} // namespace tdc

#endif // TDC_DRIVER_TDC_RUN_HH
