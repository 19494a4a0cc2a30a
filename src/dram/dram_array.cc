#include "dram/dram_array.hh"

#include <map>
#include <stdexcept>

namespace tdc
{

DramArray::DramArray(const DramGeometry &g)
    : geom(g), array(g.rows(), g.cols())
{
    if (g.symbolBits == 0 || g.symbolBits > 31)
        throw std::invalid_argument("DramArray: bad symbol width");
    if (g.chips == 0 || g.banks == 0 || g.rowsPerBank == 0)
        throw std::invalid_argument("DramArray: empty geometry");
    array.setSymbolBits(g.symbolBits);
}

uint32_t
DramArray::readSymbol(size_t row, size_t chip) const
{
    const size_t lo = chip * geom.symbolBits;
    uint32_t sym = 0;
    for (size_t j = 0; j < geom.symbolBits; ++j)
        sym |= uint32_t(array.readBit(row, lo + j)) << j;
    return sym;
}

void
DramArray::writeSymbol(size_t row, size_t chip, uint32_t value)
{
    const size_t lo = chip * geom.symbolBits;
    for (size_t j = 0; j < geom.symbolBits; ++j)
        array.writeBit(row, lo + j, (value >> j) & 1u);
}

std::vector<uint32_t>
DramArray::readCodeword(size_t row) const
{
    std::vector<uint32_t> word(geom.chips);
    for (size_t i = 0; i < geom.chips; ++i)
        word[i] = readSymbol(row, i);
    return word;
}

void
DramArray::writeCodeword(size_t row, const std::vector<uint32_t> &word)
{
    for (size_t i = 0; i < geom.chips && i < word.size(); ++i)
        writeSymbol(row, i, word[i]);
}

namespace
{

/** Sorted (unit, count) pairs from a unit-indexed counter map. */
std::vector<std::pair<size_t, size_t>>
toPairs(const std::map<size_t, size_t> &counts)
{
    return {counts.begin(), counts.end()};
}

} // namespace

std::vector<std::pair<size_t, size_t>>
DramArray::stuckChips() const
{
    std::map<size_t, size_t> counts;
    for (const auto &[row, count] : array.stuckRows()) {
        (void)count;
        for (size_t c = 0; c < array.cols(); ++c)
            if (array.isStuck(row, c))
                ++counts[chipOfCol(c)];
    }
    return toPairs(counts);
}

std::vector<std::pair<size_t, size_t>>
DramArray::stuckColumns() const
{
    std::map<size_t, size_t> counts;
    for (const auto &[row, count] : array.stuckRows()) {
        (void)count;
        for (size_t c = 0; c < array.cols(); ++c)
            if (array.isStuck(row, c))
                ++counts[c];
    }
    return toPairs(counts);
}

void
DramArray::repairChip(size_t chip)
{
    const size_t lo = chip * geom.symbolBits;
    for (size_t r = 0; r < array.rows(); ++r)
        for (size_t j = 0; j < geom.symbolBits; ++j)
            if (array.isStuck(r, lo + j))
                array.clearFault(r, lo + j);
}

void
DramArray::repairColumn(size_t col)
{
    for (size_t r = 0; r < array.rows(); ++r)
        if (array.isStuck(r, col))
            array.clearFault(r, col);
}

} // namespace tdc
