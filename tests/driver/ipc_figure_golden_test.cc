/**
 * @file
 * Golden pins of the two IPC figures the CMP simulator feeds outside
 * fig5: the exact table-format output of "--figure fig6" (L1/L2 access
 * breakdowns) and "--figure ablation" (whose panels 3-5 are matched-pair
 * IPC runs), as raw strings. Any change to the simulator, the
 * instruction streams, or how the figures schedule and share their
 * runs moves some digit and fails here.
 */

#include <gtest/gtest.h>

#include "driver/tdc_run.hh"

namespace tdc
{
namespace
{

/** "--figure <key>" in table format; asserts a clean exit. */
std::string
figureText(const std::string &key)
{
    std::string out, err;
    EXPECT_EQ(tdcRun({"--figure", key}, out, err), 0) << err;
    EXPECT_TRUE(err.empty()) << err;
    return out;
}

const char *const kFigure6 = R"TXT(=== Figure 6: cache access breakdown per 100 CPU cycles ===

--- Figure 6(a) fat baseline: L1 data cache accesses / 100 cycles (per core) ---

Workload  Read:Data  Write  Fill/Evict  Extra read (2D)  Total  Extra %
-----------------------------------------------------------------------
OLTP      32.0       14.8   1.4         16.2             64.4   25.1%  
DSS       42.7       11.4   1.3         12.7             68.1   18.7%  
Web       32.5       13.3   1.3         14.6             61.7   23.6%  
Moldyn    59.6       22.0   0.7         22.7             104.9  21.6%  
Ocean     52.9       19.7   2.9         22.5             98.0   23.0%  
Sparse    58.0       15.4   3.7         19.2             96.4   19.9%  

--- Figure 6(b) lean baseline: L1 data cache accesses / 100 cycles (per core) ---

Workload  Read:Data  Write  Fill/Evict  Extra read (2D)  Total  Extra %
-----------------------------------------------------------------------
OLTP      31.2       14.4   1.4         15.8             62.8   25.2%  
DSS       35.9       9.5    1.1         10.6             57.1   18.6%  
Web       35.2       14.4   1.4         15.8             66.8   23.6%  
Moldyn    43.4       15.9   0.5         16.4             76.2   21.5%  
Ocean     26.1       9.6    1.4         11.1             48.2   23.0%  
Sparse    24.0       6.4    1.6         7.9              39.9   19.9%  

--- Figure 6(c) fat baseline: L2 cache accesses / 100 cycles (all cores) ---

Workload  Read:Inst  Read:Data  Write  Fill/Evict  Extra read (2D)  Total
-------------------------------------------------------------------------
OLTP      8.3        5.0        2.3    1.0         3.3              19.9 
DSS       6.3        4.9        1.3    1.5         2.8              16.9 
Web       9.4        4.7        1.8    0.6         2.4              18.9 
Moldyn    0.8        2.7        1.3    0.7         2.0              7.4  
Ocean     0.8        11.1       5.8    5.1         10.9             33.7 
Sparse    0.8        14.8       4.4    7.5         11.9             39.4 

--- Figure 6(d) lean baseline: L2 cache accesses / 100 cycles (all cores) ---

Workload  Read:Inst  Read:Data  Write  Fill/Evict  Extra read (2D)  Total
-------------------------------------------------------------------------
OLTP      16.2       10.0       4.5    2.0         6.6              39.3 
DSS       10.8       8.2        2.2    2.6         4.8              28.6 
Web       20.3       10.3       4.0    1.3         5.4              41.3 
Moldyn    1.1        4.1        1.9    1.0         3.0              11.2 
Ocean     0.8        11.2       5.9    5.2         11.1             34.1 
Sparse    0.6        12.4       3.8    6.3         10.1             33.2 

Paper shape: writes (the source of read-before-write traffic) are a small
fraction of accesses; 2D coding adds roughly 20% extra reads; the fat CMP has
higher per-core L1 bandwidth, the lean CMP higher aggregate L2 bandwidth.
)TXT";

const char *const kAblation = R"TXT(=== Ablations: 2D coding design choices ===

--- Ablation 1: vertical interleave factor (256-row bank, EDC8+Intv4 horizontal) ---

V (parity rows)  Vertical storage  Total overhead  Max cluster height  Corrects 32x32?  Recovery row reads
----------------------------------------------------------------------------------------------------------
8                3.1%              15.6%           8                   no               514               
16               6.2%              18.8%           16                  no               519               
32               12.5%             25.0%           32                  yes              512               
64               25.0%             37.5%           64                  yes              384               

V trades vertical storage and coverage height; V=32 (the paper's choice) is the
smallest factor that covers 32x32 clusters.

--- Ablation 2: horizontal code choice ---

Horizontal  Storage (H only)  Inline single-bit fix  Detect width (Intv4)  32x32 corrected?
-------------------------------------------------------------------------------------------
EDC8        12.5%             no                     32                    yes             
EDC16       25.0%             no                     64                    yes             
SECDED      12.5%             yes                    8                     yes             

SECDED horizontal adds inline correction (the yield configuration of Section 5.2)
at the same storage as EDC8; EDC16 widens detection but doubles check bits.

--- Ablation 3: port-stealing window (fat CMP, OLTP) ---

Steal window (cycles)  IPC loss vs baseline
-------------------------------------------
0                      4.4%                
1                      2.1%                
2                      0.8%                
4                      0.1%                
8                      -0.0%               
16                     0.0%                

A few cycles of store-queue residency are enough to absorb most read-before-
write reads into idle port slots.

--- Ablation 4: isolated read-before-write cost (full 2D, both machines) ---

Machine  Workload  Extra reads / 100 cycles  IPC loss
-----------------------------------------------------
fat      OLTP      68.3                      2.7%    
fat      Ocean     100.8                     4.0%    
lean     OLTP      132.7                     2.8%    
lean     Ocean     99.4                      1.4%    

--- Ablation 5: 2D write-back L1 vs EDC write-through L1 (both over 2D L2) ---

Machine  Workload  Scheme         IPC loss  L2 writes / 100 cycles
------------------------------------------------------------------
fat      OLTP      L1+steal L2    2.7%      2.3                   
fat      OLTP      WT-L1 + 2D-L2  37.1%     40.0                  
fat      Web       L1+steal L2    2.3%      1.8                   
fat      Web       WT-L1 + 2D-L2  32.9%     37.8                  
lean     OLTP      L1+steal L2    2.8%      4.5                   
lean     OLTP      WT-L1 + 2D-L2  71.6%     34.9                  
lean     Web       L1+steal L2    3.3%      4.0                   
lean     Web       WT-L1 + 2D-L2  72.1%     34.4                  

Write-through duplicates every store into the shared L2: several times the L2
write traffic of the write-back 2D scheme, and a larger IPC cost on the lean CMP
whose threads contend for L2 banks (the Section 2.1/5.1 argument for 2D-protected
write-back L1 caches).

--- Ablation 6: scrub interval vs per-read checking (16MB, SECDED words) ---

Scrub interval  E[uncorrectable] / 5 years  P(survive 5 years)
--------------------------------------------------------------
per-read check  0.0000                      100.00%           
1 h             0.0026                      99.74%            
24 h            0.0627                      93.93%            
168 h           0.4386                      64.49%            
720 h           1.8795                      15.27%            

Scrubbing's vulnerability window grows linearly with the interval (Section 2.1);
checking on every read eliminates it, which is why the 2D scheme keeps the
horizontal check on the access path.

--- Ablation 7: recovery latency vs bank size (Section 4: 'a few hundred or
    thousand cycles, depending on the number of rows') ---

Bank rows  Fault            Recovery row reads  Reads / bank rows
-----------------------------------------------------------------
64         32x32 corrected  128                 2.00             
128        32x32 corrected  256                 2.00             
256        32x32 corrected  512                 2.00             
512        32x32 corrected  1024                2.00             
1024       32x32 corrected  2048                2.00             

Recovery costs a small constant number of bank marches (O(rows)), independent
of the error size — cheap because errors are rare (the paper's argument that the
recovery path needs no optimization).

)TXT";

TEST(IpcFigureGoldenPins, Figure6TableIsByteIdentical)
{
    EXPECT_EQ(figureText("fig6"), kFigure6);
}

TEST(IpcFigureGoldenPins, AblationTableIsByteIdentical)
{
    EXPECT_EQ(figureText("ablation"), kAblation);
}

} // namespace
} // namespace tdc
