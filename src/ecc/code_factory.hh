/**
 * @file
 * Factory for the named coding schemes used throughout the paper.
 */

#ifndef TDC_ECC_CODE_FACTORY_HH
#define TDC_ECC_CODE_FACTORY_HH

#include <string>

#include "ecc/code.hh"

namespace tdc
{

/**
 * The coding schemes named in the paper (Figure 1 legend):
 *  - kEdc8 / kEdc16 / kEdc32 : n-way interleaved parity, detection only
 *  - kParity                 : single even parity (byte-parity stand-in),
 *                              built as EDC1
 *  - kSecDed                 : Hsiao single-correct double-detect
 *  - kDecTed                 : extended BCH t=2 (2-correct 3-detect)
 *  - kQecPed                 : extended BCH t=4 (4-correct 5-detect)
 *  - kOecNed                 : extended BCH t=8 (8-correct 9-detect)
 */
enum class CodeKind
{
    kParity,
    kEdc8,
    kEdc16,
    kEdc32,
    kSecDed,
    kDecTed,
    kQecPed,
    kOecNed,
};

/** Short display label ("EDC8", "SECDED", ...). */
std::string codeKindName(CodeKind kind);

/** All kinds, in declaration order (the registry/spec-parser axis). */
inline constexpr CodeKind kAllCodeKinds[] = {
    CodeKind::kParity, CodeKind::kEdc8,   CodeKind::kEdc16,
    CodeKind::kEdc32,  CodeKind::kSecDed, CodeKind::kDecTed,
    CodeKind::kQecPed, CodeKind::kOecNed,
};

/**
 * Inverse of codeKindName, case-insensitive ("secded", "EDC8"...).
 * Throws std::invalid_argument quoting @p name if it matches no kind,
 * so spec-string parsers never default-construct a wrong code.
 */
CodeKind parseCodeKind(const std::string &name);

/** Build the code @p kind over a @p data_bits wide word. */
CodePtr makeCode(CodeKind kind, size_t data_bits);

/** All kinds in the order Figure 1 plots them. */
inline constexpr CodeKind kFigure1Kinds[] = {
    CodeKind::kEdc8, CodeKind::kSecDed, CodeKind::kDecTed,
    CodeKind::kQecPed, CodeKind::kOecNed,
};

} // namespace tdc

#endif // TDC_ECC_CODE_FACTORY_HH
