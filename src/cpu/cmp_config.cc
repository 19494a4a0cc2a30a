#include "cpu/cmp_config.hh"

#include "common/spec_reader.hh"

namespace tdc
{

CmpConfig
CmpConfig::fat()
{
    CmpConfig c;
    c.name = "fat";
    c.cores = 4;
    c.issueWidth = 4;
    c.outOfOrder = true;
    c.threadsPerCore = 1;
    c.robSize = 64;
    c.storeQueue = 64;
    c.l1Ports = 2;
    c.l1HitLatency = 2;
    c.l2Banks = 4;
    c.l2HitLatency = 16;
    c.l2BankBusy = 4;
    c.loadUseSlots = 3;
    c.bubbleScale = 1.0;
    c.stealWindow = 1;
    c.memLatency = 240;
    c.mshrs = 16;
    return c;
}

CmpConfig
CmpConfig::lean()
{
    CmpConfig c;
    c.name = "lean";
    c.cores = 8;
    c.issueWidth = 2;
    c.outOfOrder = false;
    c.threadsPerCore = 4;
    c.robSize = 8; // in-order: tiny in-flight window
    c.storeQueue = 64;
    c.l1Ports = 1;
    c.l1HitLatency = 2;
    c.l2Banks = 4;
    c.l2HitLatency = 12;
    c.l2BankBusy = 5; // 16-way tag + data beats
    c.loadUseSlots = 2;
    c.bubbleScale = 4.0; // no reordering to hide dependency stalls
    c.stealWindow = 4;
    c.memLatency = 240;
    c.mshrs = 16;
    return c;
}

std::string
ProtectionConfig::label() const
{
    if (l1WriteThrough)
        return l2TwoDim ? "WT-L1 + 2D-L2" : "WT-L1";
    if (!l1TwoDim && !l2TwoDim)
        return "baseline";
    std::string out;
    if (l1TwoDim) {
        out += "L1";
        if (l1PortStealing)
            out += "+steal";
    }
    if (l2TwoDim) {
        if (!out.empty())
            out += " ";
        out += "L2";
    }
    return out;
}

ProtectionConfig
ProtectionConfig::parse(const std::string &spec)
{
    if (spec == "none")
        return none();
    if (spec == "wt")
        return writeThroughL1();

    const SpecReader in("protection spec \"" + spec + "\"");
    ProtectionConfig cfg;
    for (const std::string &token : splitSpec(spec, "+")) {
        if (token == "l1")
            cfg.l1TwoDim = true;
        else if (token == "steal")
            cfg.l1PortStealing = true;
        else if (token == "l2")
            cfg.l2TwoDim = true;
        else
            in.fail("unknown token \"" + token + "\"");
    }
    if (cfg.l1PortStealing && !cfg.l1TwoDim)
        in.fail("\"steal\" requires \"l1\"");
    return cfg;
}

} // namespace tdc
