/**
 * @file
 * Shared helper for the differential tests: assert two RunResults are
 * bit-identical, field by field.
 */

#ifndef CCNUMA_TESTS_BIT_IDENTITY_HH
#define CCNUMA_TESTS_BIT_IDENTITY_HH

#include <gtest/gtest.h>

#include <string>

#include "sim/stats.hh"

namespace ccnuma::testutil {

inline void
expectIdentical(const sim::RunResult& oracle, const sim::RunResult& run,
                const std::string& what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(oracle.time, run.time);
    EXPECT_EQ(oracle.pageMigrations, run.pageMigrations);
    ASSERT_EQ(oracle.procs.size(), run.procs.size());
    for (std::size_t p = 0; p < oracle.procs.size(); ++p) {
        SCOPED_TRACE("proc " + std::to_string(p));
        const sim::ProcTimes& ot = oracle.procs[p].t;
        const sim::ProcTimes& rt = run.procs[p].t;
        EXPECT_EQ(ot.busy, rt.busy);
        EXPECT_EQ(ot.memStall, rt.memStall);
        EXPECT_EQ(ot.syncWait, rt.syncWait);
        EXPECT_EQ(ot.syncOp, rt.syncOp);
        EXPECT_EQ(ot.lockWait, rt.lockWait);
        EXPECT_EQ(ot.barrierWait, rt.barrierWait);
        const sim::ProcCounters& oc = oracle.procs[p].c;
        const sim::ProcCounters& rc = run.procs[p].c;
        EXPECT_EQ(oc.loads, rc.loads);
        EXPECT_EQ(oc.stores, rc.stores);
        EXPECT_EQ(oc.l2Hits, rc.l2Hits);
        EXPECT_EQ(oc.missLocal, rc.missLocal);
        EXPECT_EQ(oc.missRemoteClean, rc.missRemoteClean);
        EXPECT_EQ(oc.missRemoteDirty, rc.missRemoteDirty);
        EXPECT_EQ(oc.upgrades, rc.upgrades);
        EXPECT_EQ(oc.invalsSent, rc.invalsSent);
        EXPECT_EQ(oc.invalsReceived, rc.invalsReceived);
        EXPECT_EQ(oc.invalsSpurious, rc.invalsSpurious);
        EXPECT_EQ(oc.updatesSent, rc.updatesSent);
        EXPECT_EQ(oc.updatesReceived, rc.updatesReceived);
        EXPECT_EQ(oc.writebacks, rc.writebacks);
        EXPECT_EQ(oc.prefetchesIssued, rc.prefetchesIssued);
        EXPECT_EQ(oc.prefetchesUseful, rc.prefetchesUseful);
        EXPECT_EQ(oc.pageMigrations, rc.pageMigrations);
        EXPECT_EQ(oc.lockAcquires, rc.lockAcquires);
        EXPECT_EQ(oc.lockContended, rc.lockContended);
        EXPECT_EQ(oc.barriersPassed, rc.barriersPassed);
    }
}

} // namespace ccnuma::testutil

#endif // CCNUMA_TESTS_BIT_IDENTITY_HH
