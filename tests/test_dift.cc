/**
 * @file
 * Unit tests of the DIFT leakage oracle: taint propagation through
 * the architectural cores and the OoO pipeline, the pending-event
 * commit/squash protocol, and the oracle's agreement with the paper's
 * Table 2 on the separating (attack, profile) cells. A run with no
 * declared secrets must never report a leak on any profile.
 */

#include <gtest/gtest.h>

#include "attacks/attack_registry.hh"
#include "attacks/attacks.hh"
#include "core/core_factory.hh"
#include "core/dyn_inst.hh"
#include "core/ooo_core.hh"
#include "dift/taint_engine.hh"
#include "harness/profiles.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace nda {
namespace {

/** One secret byte at `addr`; returns the engine ready to attach. */
SecretMap
oneSecretAt(Addr addr)
{
    SecretMap secrets;
    secrets.addMemRange(addr, 1, "test-secret");
    return secrets;
}

TEST(DiftArch, AluMergesSourceTaint)
{
    ProgramBuilder b("alu-taint");
    b.segment(0x1000, {0x2A});
    b.movi(1, 0x1000);
    b.load(2, 1, 0, 1);    // r2 <- secret
    b.movi(3, 5);          // r3 untainted
    b.add(4, 2, 3);        // r4 inherits r2's taint
    b.add(5, 3, 3);        // r5 stays clean
    b.movi(2, 0);          // overwrite clears r2's taint
    b.halt();

    TaintEngine dift(oneSecretAt(0x1000));
    Interpreter it(b.build());
    it.attachDift(&dift);
    it.run(100);
    ASSERT_TRUE(it.halted());

    EXPECT_NE(dift.archRegTaint(4), 0u);
    EXPECT_EQ(dift.archRegTaint(5), 0u);
    EXPECT_EQ(dift.archRegTaint(2), 0u) << "movi must clear taint";
    EXPECT_FALSE(dift.report().leaked())
        << "architectural execution has no wrong path to leak from";
}

TEST(DiftArch, LoadStoreRoundTripCarriesTaint)
{
    ProgramBuilder b("mem-taint");
    b.segment(0x1000, {0x2A});
    b.zeroSegment(0x2000, 8);
    b.movi(1, 0x1000);
    b.movi(2, 0x2000);
    b.load(3, 1, 0, 1);    // r3 <- secret
    b.store(2, 0, 3, 1);   // [0x2000] <- secret (taints the byte)
    b.load(4, 2, 0, 1);    // r4 <- tainted copy
    b.movi(5, 0);
    b.store(2, 0, 5, 1);   // scrub: untainted store clears the byte
    b.halt();

    TaintEngine dift(oneSecretAt(0x1000));
    Interpreter it(b.build());
    it.attachDift(&dift);
    it.run(100);
    ASSERT_TRUE(it.halted());

    EXPECT_NE(dift.archRegTaint(4), 0u);
    EXPECT_EQ(dift.memTaint(0x2000, 1), 0u)
        << "untainted overwrite must scrub memory taint";
    EXPECT_NE(dift.memTaint(0x1000, 1), 0u)
        << "the declared secret home stays tainted";
}

TEST(DiftArch, TaintedAddressTaintsLoadedValue)
{
    // Loading public data through a secret-derived pointer makes the
    // result secret-dependent (the selection leaks): the implicit
    // flow the BTB channel transmits.
    ProgramBuilder b("addr-taint");
    b.segment(0x1000, {0x00});     // secret byte, value 0
    b.zeroSegment(0x2000, 64);     // public table
    b.movi(1, 0x1000);
    b.load(2, 1, 0, 1);            // r2 <- secret (value 0)
    b.movi(3, 0x2000);
    b.add(4, 3, 2);                // r4 = table + secret
    b.load(5, 4, 0, 1);            // r5 <- public byte, tainted addr
    b.halt();

    TaintEngine dift(oneSecretAt(0x1000));
    Interpreter it(b.build());
    it.attachDift(&dift);
    it.run(100);
    ASSERT_TRUE(it.halted());

    EXPECT_NE(dift.archRegTaint(5), 0u)
        << "address taint must propagate into the loaded value";
}

TEST(DiftOoo, StoreToLoadForwardCarriesTaint)
{
    ProgramBuilder b("fwd-taint");
    b.segment(0x1000, {0x2A});
    b.zeroSegment(0x2000, 8);
    b.movi(1, 0x1000);
    b.movi(2, 0x2000);
    b.load(3, 1, 0, 1);    // r3 <- secret
    b.store(2, 0, 3, 1);   // in-flight tainted store
    b.load(4, 2, 0, 1);    // must forward from the SQ
    b.halt();

    TaintEngine dift(oneSecretAt(0x1000));
    const Program p = b.build();
    OooCore core(p, SimConfig{});
    core.attachDift(&dift);
    core.run(~std::uint64_t{0}, 200000);
    ASSERT_TRUE(core.halted());

    EXPECT_NE(core.archRegTaint(3), 0u);
    EXPECT_NE(core.archRegTaint(4), 0u)
        << "SQ forwarding must carry the store data's taint";
    EXPECT_NE(dift.memTaint(0x2000, 1), 0u)
        << "the committed store must taint memory";
    EXPECT_FALSE(dift.report().leaked())
        << "correct-path execution must not raise leak events";
}

TEST(DiftEngine, SquashClearsTaintButKeepsLeakRecords)
{
    SecretMap secrets;
    const unsigned bit = secrets.addMemRange(0x1000, 1, "s");
    TaintEngine dift(secrets);
    dift.bindPhysRegs(16);
    const TaintWord t = TaintWord{1} << bit;

    // A wrong-path load wrote phys reg 3 and filled a cache line.
    dift.setRegTaint(3, t);
    dift.noteAccess(t, /*pc=*/6, /*cycle=*/100);
    dift.recordPending(/*seq=*/7, /*pc=*/10, LeakChannel::kDCache,
                       "fill", /*target=*/0x2000, /*cycle=*/110, t);
    EXPECT_EQ(dift.pendingCount(), 1u);
    EXPECT_FALSE(dift.report().leaked()) << "pending is not yet a leak";

    DynInst inst;
    inst.seq = 7;
    inst.dest = 3;
    dift.onSquash(inst);

    EXPECT_EQ(dift.regTaint(3), 0u)
        << "squash must clear the freed register's in-flight taint";
    EXPECT_EQ(dift.pendingCount(), 0u);
    ASSERT_TRUE(dift.report().leaked())
        << "the persistent-structure mutation survives the squash";
    const LeakEvent &ev = dift.report().first();
    EXPECT_EQ(ev.channel, LeakChannel::kDCache);
    EXPECT_EQ(ev.transmitPc, 10u);
    EXPECT_EQ(ev.accessPc, 6u);
    EXPECT_EQ(ev.transmitCycle, 110u);
    EXPECT_EQ(ev.label, "s");

    // A committed instruction's pending events are dropped instead.
    dift.recordPending(/*seq=*/8, /*pc=*/12, LeakChannel::kBtb,
                       "update", 0x3000, 120, t);
    dift.onCommit(8);
    EXPECT_EQ(dift.pendingCount(), 0u);
    EXPECT_EQ(dift.report().count(), 1u)
        << "commit must not add (or remove) leak records";
}

TEST(DiftEngine, UntaintedRunHasZeroLeaksOnEveryProfile)
{
    // No declared secrets: the oracle must stay silent on every
    // profile even though the attack program's wrong path runs.
    const Program p = SpectreV1Cache().build(42);
    for (int i = 0;
         i < static_cast<int>(Profile::kNumProfiles); ++i) {
        const SimConfig cfg =
            makeProfile(static_cast<Profile>(i));
        TaintEngine dift((SecretMap()));
        EXPECT_FALSE(dift.enabled());
        auto core = makeCore(p, cfg);
        core->attachDift(&dift);
        core->run(~std::uint64_t{0}, 40'000'000);
        EXPECT_TRUE(core->halted()) << cfg.name;
        EXPECT_FALSE(dift.report().leaked()) << cfg.name;
        EXPECT_EQ(dift.pendingCount(), 0u) << cfg.name;
    }
}

TEST(DiftOracle, LeakEventPairsAccessAndTransmitSites)
{
    // On the insecure OoO baseline Spectre v1 leaks via the d-cache;
    // the oracle must name both phases with distinct sites.
    const auto r =
        SpectreV1Cache().run(makeProfile(Profile::kOoo), 42);
    ASSERT_TRUE(r.leaked());
    ASSERT_TRUE(r.oracle.leaked());
    EXPECT_GT(r.oracle.firstLeakCycle(), 0u);
    EXPECT_GE(r.oracle.countFor(LeakChannel::kDCache), 1u);
    const LeakEvent &ev = r.oracle.first();
    EXPECT_NE(ev.transmitPc, ev.accessPc)
        << "access and transmit are separate instructions";
    EXPECT_GE(ev.transmitCycle, ev.accessCycle);
    EXPECT_EQ(ev.label, "victim-secret");
}

TEST(DiftOracle, BtbChannelDefeatsInvisiSpecButNotNdaStrict)
{
    // Paper §6 / Table 2: InvisiSpec hides the d-cache but not the
    // BTB; NDA strict propagation blocks both.
    SpectreV1Btb atk;
    const auto under_is =
        atk.run(makeProfile(Profile::kInvisiSpecSpectre), 42);
    EXPECT_TRUE(under_is.leaked());
    ASSERT_TRUE(under_is.oracle.leaked());
    EXPECT_GE(under_is.oracle.countFor(LeakChannel::kBtb), 1u)
        << "under InvisiSpec the surviving flow is the BTB update";
    EXPECT_EQ(under_is.oracle.countFor(LeakChannel::kDCache), 0u)
        << "shadow loads must not raise d-cache events";

    const auto under_nda =
        atk.run(makeProfile(Profile::kStrict), 42);
    EXPECT_FALSE(under_nda.leaked());
    EXPECT_FALSE(under_nda.oracle.leaked());
}

TEST(DiftOracle, SsbBlockedExactlyByBypassRestriction)
{
    // Paper Table 2: plain propagation does not stop SSB; adding
    // Bypass Restriction does. The oracle must land the same way.
    SpectreSsb atk;
    const auto permissive =
        atk.run(makeProfile(Profile::kPermissive), 42);
    EXPECT_TRUE(permissive.leaked());
    EXPECT_TRUE(permissive.oracle.leaked());

    const auto with_br =
        atk.run(makeProfile(Profile::kPermissiveBr), 42);
    EXPECT_FALSE(with_br.leaked());
    EXPECT_FALSE(with_br.oracle.leaked())
        << "the squashed bypassing load mutates nothing persistent";
}

TEST(DiftOracle, FullProtectionBlocksEverything)
{
    const SimConfig cfg = makeProfile(Profile::kFullProtection);
    for (const auto &attack : makeAllAttacks()) {
        const auto r = attack->run(cfg, 42);
        EXPECT_FALSE(r.leaked()) << attack->name();
        EXPECT_FALSE(r.oracle.leaked())
            << attack->name() << ": " << r.oracle.summary();
    }
}

/** smt-mshr with the eager memory policy: misses fill at once and
 *  hold no MSHR entry, so there is no shared occupancy to time. */
class EagerMshrContention : public MshrContention
{
  public:
    void
    adjustConfig(SimConfig &cfg) const override
    {
        MshrContention::adjustConfig(cfg);
        cfg.memory.mshrEntries = 0;
    }
};

TEST(DiftOracle, MshrContentionNeedsAnMshrEntry)
{
    // The secret-indexed wrong-path misses of smt-mshr occupy entries
    // of the shared 4-entry file: the oracle records the channel...
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const auto with_mshrs = MshrContention().run(cfg, 42);
    EXPECT_GE(with_mshrs.oracle.countFor(LeakChannel::kMshrContention),
              1u);

    // ...while the same misses under the eager policy occupy nothing,
    // so only the d-cache fill remains.
    const auto eager = EagerMshrContention().run(cfg, 42);
    EXPECT_EQ(eager.oracle.countFor(LeakChannel::kMshrContention), 0u)
        << "an eager fill holds no MSHR entry";
    EXPECT_GE(eager.oracle.countFor(LeakChannel::kDCache), 1u);
}

} // namespace
} // namespace nda
