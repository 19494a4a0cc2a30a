#include "ecc/code_factory.hh"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <stdexcept>

#include "ecc/bch.hh"
#include "ecc/hsiao.hh"
#include "ecc/interleaved_parity.hh"

namespace tdc
{

std::string
codeKindName(CodeKind kind)
{
    switch (kind) {
      case CodeKind::kParity: return "Parity";
      case CodeKind::kEdc8: return "EDC8";
      case CodeKind::kEdc16: return "EDC16";
      case CodeKind::kEdc32: return "EDC32";
      case CodeKind::kSecDed: return "SECDED";
      case CodeKind::kDecTed: return "DECTED";
      case CodeKind::kQecPed: return "QECPED";
      case CodeKind::kOecNed: return "OECNED";
    }
    assert(false);
    return {};
}

CodeKind
parseCodeKind(const std::string &name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (CodeKind kind : kAllCodeKinds) {
        std::string label = codeKindName(kind);
        std::transform(label.begin(), label.end(), label.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (lower == label)
            return kind;
    }
    throw std::invalid_argument("unknown code \"" + name + "\"");
}

CodePtr
makeCode(CodeKind kind, size_t data_bits)
{
    switch (kind) {
      case CodeKind::kParity:
        return std::make_shared<InterleavedParityCode>(data_bits, 1);
      case CodeKind::kEdc8:
        return std::make_shared<InterleavedParityCode>(data_bits, 8);
      case CodeKind::kEdc16:
        return std::make_shared<InterleavedParityCode>(data_bits, 16);
      case CodeKind::kEdc32:
        return std::make_shared<InterleavedParityCode>(data_bits, 32);
      case CodeKind::kSecDed:
        return std::make_shared<HsiaoSecDedCode>(data_bits);
      case CodeKind::kDecTed:
        return std::make_shared<ExtendedBchCode>(data_bits, 2, "DECTED");
      case CodeKind::kQecPed:
        return std::make_shared<ExtendedBchCode>(data_bits, 4, "QECPED");
      case CodeKind::kOecNed:
        return std::make_shared<ExtendedBchCode>(data_bits, 8, "OECNED");
    }
    assert(false);
    return nullptr;
}

} // namespace tdc
