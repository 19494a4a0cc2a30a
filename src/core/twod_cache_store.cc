#include "core/twod_cache_store.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/parallel.hh"

namespace tdc
{

TwoDimCacheStore::TwoDimCacheStore(const TwoDimConfig &bank_config,
                                   size_t banks)
{
    if (banks == 0)
        throw std::invalid_argument(
            "TwoDimCacheStore requires at least one bank");
    bankArray.reserve(banks);
    for (size_t b = 0; b < banks; ++b)
        bankArray.push_back(std::make_unique<TwoDimArray>(bank_config));
}

size_t
TwoDimCacheStore::wordsPerBank() const
{
    return bankArray[0]->rows() * bankArray[0]->wordsPerRow();
}

size_t
TwoDimCacheStore::dataBits() const
{
    return bankArray[0]->dataBits();
}

double
TwoDimCacheStore::storageOverhead() const
{
    return bankArray[0]->storageOverhead();
}

std::pair<size_t, size_t>
TwoDimCacheStore::locate(size_t word) const
{
    assert(word < totalWords());
    const size_t local = word / banks();
    const size_t slots = bankArray[0]->wordsPerRow();
    return {local / slots, local % slots};
}

void
TwoDimCacheStore::writeWord(size_t word, const BitVector &value)
{
    auto [row, slot] = locate(word);
    bankArray[bankOf(word)]->writeWord(row, slot, value);
}

AccessResult
TwoDimCacheStore::readWord(size_t word)
{
    auto [row, slot] = locate(word);
    return bankArray[bankOf(word)]->readWord(row, slot);
}

bool
TwoDimCacheStore::scrubAll()
{
    // Banks are fully independent (own cells, parity, stats, scratch),
    // so the scrub shards directly over the pool; each iteration
    // writes only its own outcome slot.
    std::vector<char> clean(banks(), 0);
    parallelFor(banks(), [&](size_t b) {
        clean[b] = bankArray[b]->scrub() ? 1 : 0;
    });
    return std::all_of(clean.begin(), clean.end(),
                       [](char c) { return c != 0; });
}

TwoDimStats
TwoDimCacheStore::aggregateStats() const
{
    TwoDimStats total;
    for (const auto &bank : bankArray)
        total += bank->stats();
    return total;
}

} // namespace tdc
