/**
 * @file
 * Golden pins on FaultInjector::inject: every shape x {transient,
 * stuck-at} x {random, fixed anchor}, on a plain bit array and on a
 * 4-bit-symbol array. Each case pins a digest of the array afterwards
 * (visible data plus the stuck-at overlay) and the generator's next
 * value, which pins how many draws the placement and the re-roll
 * rules consumed. Every footprint fits the array, so these are the
 * draws campaigns, lifetime missions and service events see.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "array/fault.hh"
#include "array/memory_array.hh"
#include "common/rng.hh"
#include "common/stable_hash.hh"

namespace tdc
{
namespace
{

/** Low half of a digest over every cell's visible value and stuck bit. */
uint64_t
arrayDigest(const MemoryArray &arr)
{
    StableHash h;
    for (size_t r = 0; r < arr.rows(); ++r) {
        std::string cells;
        for (size_t c = 0; c < arr.cols(); ++c)
            cells += char('0' + arr.readBit(r, c) + 2 * arr.isStuck(r, c));
        h.update(cells);
    }
    return h.digest().lo;
}

struct Pin
{
    uint64_t digest;
    uint64_t nextDraw;
};

/** The cases in pin order, labelled for failure messages. */
struct Case
{
    std::string label;
    MemoryArray arr;
    FaultModel model;
};

std::vector<Case>
cases()
{
    const std::vector<std::string> specs = {
        "single",  "row:5",     "col:6",    "3x4",
        "5x3@0.5", "fullrow",   "fullcol",  "chip:any",
        "hammer:3", "hammer:3@0.3", "senseamp:4"};
    std::vector<Case> out;
    for (const size_t symbol_bits : {1u, 4u}) {
        for (const std::string &spec : specs) {
            for (const bool hard : {false, true}) {
                for (const bool fixed : {false, true}) {
                    MemoryArray arr(symbol_bits == 1 ? 12 : 8,
                                    symbol_bits == 1 ? 20 : 16);
                    arr.setSymbolBits(symbol_bits);
                    Rng fill(7);
                    for (size_t r = 0; r < arr.rows(); ++r)
                        for (size_t c = 0; c < arr.cols(); ++c)
                            arr.writeBit(r, c, fill.nextBool());
                    FaultModel m = parseFaultModel(spec);
                    if (hard)
                        m.persistence = FaultPersistence::kStuckAt;
                    if (fixed) {
                        m.rowLo = 2;
                        m.colLo = 3;
                    }
                    out.push_back({"x" + std::to_string(symbol_bits) +
                                       " " + spec +
                                       (hard ? " hard" : " soft") +
                                       (fixed ? " @2,3" : " random"),
                                   std::move(arr), m});
                }
            }
        }
    }
    return out;
}

// Every campaign and lifetime result in the on-disk cache depends on
// these draws: a change that moves a pin changes behaviour and must
// bump ResultCache::kFormatVersion too.
const std::vector<Pin> kPins = {
    {0x949533ecb50083caull, 0x5c76d220f8461395ull}, // x1 single soft random
    {0x23f09e62049e1fbcull, 0x8d2dfe5d32776db0ull}, // x1 single soft @2,3
    {0x93322e9bd96b5ba6ull, 0xc29038dbc66c9992ull}, // x1 single hard random
    {0xbf9c48e595a7599aull, 0x38834f8bc4402c46ull}, // x1 single hard @2,3
    {0x9e20334dc88a2d3eull, 0xc377b305d166edefull}, // x1 row:5 soft random
    {0xf6d556a3603a8266ull, 0x73ada7d37433e55dull}, // x1 row:5 soft @2,3
    {0x59502bdff00db5adull, 0xe3adb59cbcaa18a3ull}, // x1 row:5 hard random
    {0x4d97a73ddc56ae93ull, 0x806897c22a9e864dull}, // x1 row:5 hard @2,3
    {0x7f0b99f240992ce4ull, 0x30c363f9bd67f034ull}, // x1 col:6 soft random
    {0xa98ab4eaf6d8f35dull, 0xb7516f5682d14c8cull}, // x1 col:6 soft @2,3
    {0xa6756b20838a4f05ull, 0x1ded7b55cf6f8c01ull}, // x1 col:6 hard random
    {0x6308ac8a40431e0eull, 0xc55f215dd01aaeffull}, // x1 col:6 hard @2,3
    {0x8ec8fefe5a844d4aull, 0x8a05bee6392d014cull}, // x1 3x4 soft random
    {0x48722ae99ed008d8ull, 0x377c3fa1b805bd44ull}, // x1 3x4 soft @2,3
    {0xa147a58af4041200ull, 0xf011428eacd9e941ull}, // x1 3x4 hard random
    {0x77682aa131fd635bull, 0x270d97794e80a615ull}, // x1 3x4 hard @2,3
    {0xbb4251f83600e785ull, 0x5cc6f0ffedff5c27ull}, // x1 5x3@0.5 soft random
    {0x2fe7b7b03d128181ull, 0xf2d2b04f165e6a8bull}, // x1 5x3@0.5 soft @2,3
    {0x7effe8e5fc24f14eull, 0xa21d40e9e745dc43ull}, // x1 5x3@0.5 hard random
    {0xc8045181f9b1b702ull, 0xf8f9406eb23d89d0ull}, // x1 5x3@0.5 hard @2,3
    {0xf34105b6c6c909bfull, 0x9bf1a16ba18fbff0ull}, // x1 fullrow soft random
    {0xf34105b6c6c909bfull, 0x438d514b21bbdb6aull}, // x1 fullrow soft @2,3
    {0xa81380b47ac71f09ull, 0x153b853e888fe5b3ull}, // x1 fullrow hard random
    {0x16c09ae8c9e41129ull, 0x325a8fa1d1a069f9ull}, // x1 fullrow hard @2,3
    {0x9314ddd55b43629aull, 0xcb5af548b44eae9eull}, // x1 fullcol soft random
    {0x63a0046097cf5d5full, 0x76f6009ce8a2ead3ull}, // x1 fullcol soft @2,3
    {0x58a1e640737327d0ull, 0x4b81815460de04aaull}, // x1 fullcol hard random
    {0x92a8be0c8e48e98bull, 0x57aa3572f6085afdull}, // x1 fullcol hard @2,3
    {0x9314ddd55b43629aull, 0x4190ac0f025d117bull}, // x1 chip:any soft random
    {0x63a0046097cf5d5full, 0xc007e65a667c7c61ull}, // x1 chip:any soft @2,3
    {0xc70eca0c589882bcull, 0xe6e8ce925fde27d0ull}, // x1 chip:any hard random
    {0x92a8be0c8e48e98bull, 0x33ea099a6f783c88ull}, // x1 chip:any hard @2,3
    {0x4ba13e71da7dbb55ull, 0x118651c2d64c67b9ull}, // x1 hammer:3 soft random
    {0x37e2eaea4a1ebec3ull, 0x09e39b40118f8001ull}, // x1 hammer:3 soft @2,3
    {0x756c602e587d251dull, 0x5a9615292e3703d3ull}, // x1 hammer:3 hard random
    {0x7fddddf65564f4e6ull, 0xd57e706c2a9c57c9ull}, // x1 hammer:3 hard @2,3
    {0x454edc8b115b179full, 0x745c3a38dbb17606ull}, // x1 hammer:3@0.3 soft random
    {0xec7adba5093ab708ull, 0xbe1f250ab63246ebull}, // x1 hammer:3@0.3 soft @2,3
    {0xa662c07db66330aeull, 0xe1f4c8961e1dc4c7ull}, // x1 hammer:3@0.3 hard random
    {0x0b602f579f87abb6ull, 0x57949ddf357f2240ull}, // x1 hammer:3@0.3 hard @2,3
    {0x4836ce491f6dfd82ull, 0x1ea1d42457ffd43full}, // x1 senseamp:4 soft random
    {0xdd8b94fb1f8ec268ull, 0x752324a6a8435710ull}, // x1 senseamp:4 soft @2,3
    {0x2ac00f09607f705dull, 0x1373c23ad7600b80ull}, // x1 senseamp:4 hard random
    {0xe2ef32df6755cd62ull, 0x1666f3c4cb469d5aull}, // x1 senseamp:4 hard @2,3
    {0xd56fdedcfcaa3fffull, 0xed672eb3e33d44c1ull}, // x4 single soft random
    {0xf2be92a10dcfc42bull, 0x3ae33ef7a0f0ff4bull}, // x4 single soft @2,3
    {0x4ff0153ab3534ac8ull, 0xce5cdfb428d6501dull}, // x4 single hard random
    {0x5edda6e4cc081e4aull, 0x044fe63dc1899db8ull}, // x4 single hard @2,3
    {0xa0e5cd728ed9543cull, 0x92957e95d730bb58ull}, // x4 row:5 soft random
    {0x2a126f91ff6e724aull, 0x8658b7c9af80a2e0ull}, // x4 row:5 soft @2,3
    {0xaaec3e5af6a66502ull, 0x12b238fb01fe1433ull}, // x4 row:5 hard random
    {0x64e9e34d583d193eull, 0x24212dcecaaeb4c6ull}, // x4 row:5 hard @2,3
    {0x93c769300f105a13ull, 0xa13fbb0e92298b95ull}, // x4 col:6 soft random
    {0xb3f06fa9defeb650ull, 0x39f19ff15d47857eull}, // x4 col:6 soft @2,3
    {0x7370ba848516b2d7ull, 0xd4fb260cd0fdd5aeull}, // x4 col:6 hard random
    {0xb372ff614753b96bull, 0x9c24dce92f1164f4ull}, // x4 col:6 hard @2,3
    {0x1d599c071ca8fc26ull, 0xb24d79ca9b89d1f9ull}, // x4 3x4 soft random
    {0x4acd82a5ac1655cdull, 0xe54b3c3bbd88293dull}, // x4 3x4 soft @2,3
    {0x06df27bb621dc921ull, 0xfc88945aaddc487dull}, // x4 3x4 hard random
    {0x0fb654ebbdbb9cccull, 0x31a3a5cb204c94dfull}, // x4 3x4 hard @2,3
    {0xef45f76869960816ull, 0xd5f75a7fa1ede5e1ull}, // x4 5x3@0.5 soft random
    {0xa22579fefa660e6full, 0x64056af3e54ebd25ull}, // x4 5x3@0.5 soft @2,3
    {0x39741be4d4fbf633ull, 0x50ad28e18ce5a506ull}, // x4 5x3@0.5 hard random
    {0xcc68c906622951d8ull, 0xdfbc03cf9b5d3624ull}, // x4 5x3@0.5 hard @2,3
    {0xac06efcaec89665aull, 0x8f7e65453a84bf7eull}, // x4 fullrow soft random
    {0xf87458666a2cb5d7ull, 0x15d76259849a99d9ull}, // x4 fullrow soft @2,3
    {0x3444105b024d2503ull, 0x34f06fec58c58836ull}, // x4 fullrow hard random
    {0xecc2e03c0ce8a10dull, 0xd90f27e518fc309dull}, // x4 fullrow hard @2,3
    {0xab885711070bb7bbull, 0xd7884b5062767f48ull}, // x4 fullcol soft random
    {0x33a3e65a23c5fe66ull, 0xcebd079345d1519eull}, // x4 fullcol soft @2,3
    {0xb1577d9dd30d1a0dull, 0xd45773cbfd0a7224ull}, // x4 fullcol hard random
    {0xb1577d9dd30d1a0dull, 0xc4984622ac1ffb6dull}, // x4 fullcol hard @2,3
    {0x703228362f70a6a5ull, 0x1aefe19dfe056e58ull}, // x4 chip:any soft random
    {0xbf2700ef11a8f4e4ull, 0x899a9a94add82ae8ull}, // x4 chip:any soft @2,3
    {0x6ffe5da897ecfce5ull, 0xadec17f26944042eull}, // x4 chip:any hard random
    {0xd53e5b22b886a682ull, 0x14a517d51ec74a1bull}, // x4 chip:any hard @2,3
    {0x68336a42a1f0d6b0ull, 0x006e119b9942705aull}, // x4 hammer:3 soft random
    {0x69578d8009befadfull, 0xacde2bc35256d9ffull}, // x4 hammer:3 soft @2,3
    {0xd0304edc55804f8full, 0xf3e60bee9c81549aull}, // x4 hammer:3 hard random
    {0x5cd5bff36ced2eeaull, 0x2c14e86471eb0ab2ull}, // x4 hammer:3 hard @2,3
    {0xafb92bdfc7a4a82dull, 0x5aa90ed3e4224261ull}, // x4 hammer:3@0.3 soft random
    {0x28c9a666f12fd785ull, 0x18fb46c4ff389c64ull}, // x4 hammer:3@0.3 soft @2,3
    {0xec4c5fc7f8e891d8ull, 0x3c6a0385f04a3259ull}, // x4 hammer:3@0.3 hard random
    {0x8179f617b00653e7ull, 0x621f90f298db4d6eull}, // x4 hammer:3@0.3 hard @2,3
    {0xa023c8e1532d3090ull, 0x510912da2580374dull}, // x4 senseamp:4 soft random
    {0x0214dd9d435ddd19ull, 0x768687c816207b00ull}, // x4 senseamp:4 soft @2,3
    {0x8e3127599ac1a1b5ull, 0x34917c0df21ee326ull}, // x4 senseamp:4 hard random
    {0x6eb968b2ecb6837dull, 0x77c334f275527d6dull}, // x4 senseamp:4 hard @2,3
};

TEST(FaultPlacementPins, EveryShapePersistenceAndAnchor)
{
    std::vector<Case> all = cases();
    std::string table;
    std::vector<Pin> actual;
    for (size_t i = 0; i < all.size(); ++i) {
        Rng rng(100 + i);
        FaultInjector(rng).inject(all[i].arr, all[i].model);
        actual.push_back({arrayDigest(all[i].arr), rng.next()});
        char line[96];
        std::snprintf(line, sizeof(line),
                      "    {0x%016llxull, 0x%016llxull}, // ",
                      (unsigned long long)actual.back().digest,
                      (unsigned long long)actual.back().nextDraw);
        table += line + all[i].label + "\n";
    }
    ASSERT_EQ(kPins.size(), all.size()) << "pins:\n" << table;
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(actual[i].digest, kPins[i].digest) << all[i].label;
        EXPECT_EQ(actual[i].nextDraw, kPins[i].nextDraw) << all[i].label;
    }
}

} // namespace
} // namespace tdc
