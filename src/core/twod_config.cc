#include "core/twod_config.hh"

#include "ecc/code.hh"

namespace tdc
{

TwoDimConfig
TwoDimConfig::l1Default()
{
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kEdc8;
    cfg.wordBits = 64;
    cfg.interleaveDegree = 4;
    cfg.verticalParityRows = 32;
    cfg.dataRows = 256;
    return cfg;
}

TwoDimConfig
TwoDimConfig::l2Default()
{
    TwoDimConfig cfg;
    cfg.horizontalKind = CodeKind::kEdc16;
    cfg.wordBits = 256;
    cfg.interleaveDegree = 2;
    cfg.verticalParityRows = 32;
    cfg.dataRows = 256;
    return cfg;
}

size_t
TwoDimConfig::clusterWidthCoverage() const
{
    const CodePtr code = makeCode(horizontalKind, wordBits);
    return interleaveDegree * code->burstDetectCapability();
}

std::string
TwoDimConfig::describe() const
{
    return codeKindName(horizontalKind) + "+Intv" +
           std::to_string(interleaveDegree) + ", EDC" +
           std::to_string(verticalParityRows) + " vertical (" +
           std::to_string(dataRows) + " data rows, " +
           std::to_string(wordBits) + "b words)";
}

} // namespace tdc
