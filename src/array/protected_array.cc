#include "array/protected_array.hh"

#include <cassert>

namespace tdc
{

ProtectedArray::ProtectedArray(size_t rows, CodePtr code, size_t degree)
    : horizontal(std::move(code)),
      map(horizontal->codewordBits(), degree),
      array(rows, map.rowBits())
{
}

void
ProtectedArray::writeWord(size_t row, size_t slot, const BitVector &data)
{
    assert(data.size() == horizontal->dataBits());
    BitVector phys_row = array.readRow(row);
    map.depositWord(phys_row, slot, horizontal->encode(data));
    array.writeRow(row, phys_row);
}

void
ProtectedArray::writeLine(size_t row, const BitVector &line_bits)
{
    assert(line_bits.size() == map.rowBits());
    array.writeRow(row, line_bits);
}

AccessResult
ProtectedArray::readWord(size_t row, size_t slot)
{
    const BitVector phys_row = array.readRow(row);
    const BitVector codeword = map.extractWord(phys_row, slot);
    DecodeResult decoded = horizontal->decode(codeword);

    AccessResult result;
    result.status = decoded.status;
    result.data = std::move(decoded.data);

    if (result.status == DecodeStatus::kCorrected) {
        // In-line correction: repair the stored copy too.
        BitVector fixed_row = phys_row;
        map.depositWord(fixed_row, slot, horizontal->encode(result.data));
        array.writeRow(row, fixed_row);
    }
    return result;
}

AccessResult
ProtectedArray::peekWord(size_t row, size_t slot) const
{
    const BitVector phys_row = array.readRow(row);
    DecodeResult decoded =
        horizontal->decode(map.extractWord(phys_row, slot));
    AccessResult result;
    result.status = decoded.status;
    result.data = std::move(decoded.data);
    return result;
}

size_t
ProtectedArray::contiguousDetectWidth() const
{
    return map.degree() * horizontal->burstDetectCapability();
}

size_t
ProtectedArray::contiguousCorrectWidth() const
{
    return map.degree() * horizontal->correctCapability();
}

} // namespace tdc
