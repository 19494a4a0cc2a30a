#include "core/twod_config.hh"

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
