/**
 * @file
 * Test helper: serve a stream with a RequestObserver that keeps every
 * request's outcome, and check that the observer saw each index
 * exactly once.
 */

#ifndef TDC_TESTS_SERVICE_RECORDED_SERVE_HH
#define TDC_TESTS_SERVICE_RECORDED_SERVE_HH

#include <gtest/gtest.h>

#include <vector>

#include "service/cache_service.hh"

namespace tdc
{

/** A service report plus the outcomes its observer was handed. */
struct RecordedServe
{
    ServiceReport report;
    std::vector<RequestOutcome> outcomes; ///< by request index

    bool operator==(const RecordedServe &) const = default;
};

/** Serve @p stream (a RequestSource or a request vector) of @p count
 *  requests, recording each outcome at its index. */
template <class Stream>
RecordedServe
serveRecorded(const CacheService &service, Stream &stream, size_t count)
{
    RecordedServe out;
    out.outcomes.resize(count);
    // One counter per index: shard workers touch disjoint slots.
    std::vector<unsigned> calls(count, 0);
    out.report = service.serve(
        stream, [&](uint64_t index, const RequestOutcome &outcome) {
            if (index >= count) {
                ADD_FAILURE() << "observer index " << index << " >= "
                              << count;
                return;
            }
            out.outcomes[index] = outcome;
            ++calls[index];
        });
    for (size_t i = 0; i < count; ++i)
        EXPECT_EQ(calls[i], 1u) << "observer calls for request " << i;
    return out;
}

inline RecordedServe
serveRecorded(const CacheService &service,
              const std::vector<ServiceRequest> &requests)
{
    return serveRecorded(service, requests, requests.size());
}

inline RecordedServe
serveRecorded(const CacheService &service, RequestSource &source)
{
    return serveRecorded(service, source, source.size());
}

} // namespace tdc

#endif // TDC_TESTS_SERVICE_RECORDED_SERVE_HH
