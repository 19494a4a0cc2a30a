#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spec_reader.hh"

namespace tdc
{

namespace
{

/** Set while a pool worker is executing loop bodies, so nested
 *  parallelFor calls degrade to serial instead of deadlocking. */
thread_local bool inWorker = false;

unsigned
defaultThreads()
{
    if (const std::optional<unsigned> n = requestedThreads())
        return *n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * Persistent pool. Workers sleep on a condition variable between
 * jobs; a job is a (body, n) pair dispatched through an atomic
 * iteration counter. The submitting thread works alongside the pool,
 * so a configured count of T uses T-1 pool threads. Jobs are
 * submitted from one thread at a time (the simulation drivers all run
 * their sweeps from the main thread).
 */
class WorkerPool
{
  public:
    static WorkerPool &instance()
    {
        static WorkerPool pool;
        return pool;
    }

    void setThreads(unsigned n)
    {
        std::lock_guard<std::mutex> lock(mu);
        configured = n == 0 ? defaultThreads() : n;
    }

    void run(size_t n, const std::function<void(size_t)> &fn)
    {
        std::unique_lock<std::mutex> lock(mu);
        const size_t want = std::min<size_t>(configured, n);
        if (inWorker || want <= 1) {
            lock.unlock();
            for (size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        resize(lock, want - 1);

        body = &fn;
        limit = n;
        next.store(0, std::memory_order_relaxed);
        firstError = nullptr;
        active = workers.size();
        ++generation;
        lock.unlock();
        cvWork.notify_all();

        // The submitting thread participates — marked as a worker so
        // a nested parallelFor inside the body degrades to serial
        // instead of re-entering the dispatcher mid-job.
        inWorker = true;
        workItems(fn);
        inWorker = false;

        lock.lock();
        cvDone.wait(lock, [&] { return active == 0; });
        body = nullptr;
        if (firstError) {
            std::exception_ptr e = firstError;
            firstError = nullptr;
            lock.unlock();
            std::rethrow_exception(e);
        }
    }

  private:
    WorkerPool() = default;

    ~WorkerPool()
    {
        std::unique_lock<std::mutex> lock(mu);
        stop = true;
        lock.unlock();
        cvWork.notify_all();
        for (std::thread &w : workers)
            w.join();
    }

    /** Adjust the pool to @p count workers. @p lock holds mu and no
     *  job is in flight. Rare (bench/test setup), so the simplest
     *  correct scheme is used: retire the whole pool and respawn. */
    void resize(std::unique_lock<std::mutex> &lock, size_t count)
    {
        if (workers.size() == count)
            return;
        stop = true;
        lock.unlock();
        cvWork.notify_all();
        for (std::thread &w : workers)
            w.join();
        lock.lock();
        workers.clear();
        stop = false;
        for (size_t i = 0; i < count; ++i) {
            // Hand each worker the generation current at spawn time so
            // it never mistakes an already-finished job for a new one.
            const uint64_t seen = generation;
            workers.emplace_back([this, seen] { workerLoop(seen); });
        }
    }

    void workerLoop(uint64_t seen)
    {
        inWorker = true;
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cvWork.wait(lock,
                        [&] { return stop || generation != seen; });
            if (stop)
                return;
            seen = generation;
            const std::function<void(size_t)> *fn = body;
            lock.unlock();
            workItems(*fn);
            lock.lock();
            if (--active == 0)
                cvDone.notify_all();
        }
    }

    void workItems(const std::function<void(size_t)> &fn)
    {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= limit)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!firstError)
                    firstError = std::current_exception();
                // Abandon the remaining iterations.
                next.store(limit, std::memory_order_relaxed);
            }
        }
    }

    std::mutex mu;
    std::condition_variable cvWork;
    std::condition_variable cvDone;
    std::vector<std::thread> workers;
    unsigned configured = defaultThreads();

    const std::function<void(size_t)> *body = nullptr;
    size_t limit = 0;
    std::atomic<size_t> next{0};
    size_t active = 0;
    uint64_t generation = 0;
    bool stop = false;
    std::exception_ptr firstError;
};

} // namespace

std::optional<unsigned>
requestedThreads()
{
    const char *env = std::getenv("TDC_THREADS");
    if (env == nullptr)
        return std::nullopt;
    return unsigned(SpecReader("TDC_THREADS").digits(env, 1, 256));
}

void
setParallelThreads(unsigned n)
{
    WorkerPool::instance().setThreads(n);
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    WorkerPool::instance().run(n, body);
}

uint64_t
shardSeed(uint64_t base, uint64_t shard)
{
    // SplitMix64 finalizer over a golden-ratio stride: decorrelates
    // adjacent shards even for adjacent base seeds.
    uint64_t x = base + 0x9e3779b97f4a7c15ULL * (shard + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
shardSeed(uint64_t base, uint64_t domain, uint64_t shard)
{
    // Fold the domain through the same finalizer first: the inner mix
    // scatters (base, domain) pairs over the full 64-bit space, so the
    // outer per-shard streams of distinct domains are unrelated — and
    // distinct from the legacy un-domained shardSeed(base, shard)
    // streams (domain folding never degenerates to the identity).
    return shardSeed(shardSeed(base ^ 0xd0a1a1d5ca1ab1e5ULL, domain),
                     shard);
}

} // namespace tdc
