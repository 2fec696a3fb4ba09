/**
 * @file
 * Tests of the grid service (harness/grid_service.hh): the JSON
 * parser must accept the protocol's documents and reject malformed
 * input without crashing; handleRequest must stream progress, cell,
 * and done lines for well-formed requests, emit a single error line
 * (and survive) for bad ones, and share its checkpoint corpus across
 * requests so a repeated grid is served without fast-forward work.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hh"
#include "harness/grid_service.hh"
#include "harness/grid_spec.hh"

namespace nda {
namespace {

namespace fs = std::filesystem;

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << error << " in " << text;
    return v;
}

// --------------------------------------------------------------------------
// JSON parser
// --------------------------------------------------------------------------

TEST(GridServiceJson, ParsesNestedDocument)
{
    const JsonValue v = parsed(
        R"({"name":"x\n\"y\"","n":-2.5,"ok":true,"none":null,)"
        R"("list":[1,[2,3],{"k":"v"}]})");
    ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
    ASSERT_NE(v.find("name"), nullptr);
    EXPECT_EQ(v.find("name")->string, "x\n\"y\"");
    EXPECT_EQ(v.find("n")->number, -2.5);
    EXPECT_TRUE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("none")->kind, JsonValue::Kind::kNull);
    const JsonValue &list = *v.find("list");
    ASSERT_EQ(list.array.size(), 3u);
    EXPECT_EQ(list.array[1].array[1].number, 3.0);
    EXPECT_EQ(list.array[2].find("k")->string, "v");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(GridServiceJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "\"unterminated",
        "{\"a\":1} trailing",
        "nulL",
        "{\"esc\":\"\\q\"}",
        "{\"u\":\"\\u12\"}",
    };
    for (const char *text : bad) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(text, v, error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty());
    }

    // Nesting depth is bounded — a bracket bomb fails cleanly
    // instead of overflowing the stack.
    const std::string deep(1000, '[');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, error));
}

// --------------------------------------------------------------------------
// Request handling
// --------------------------------------------------------------------------

struct Captured {
    std::vector<std::string> lines;
    GridService::Emit
    emit()
    {
        return [this](const std::string &line) {
            lines.push_back(line);
        };
    }
    /** Response lines of one type, parsed. */
    std::vector<JsonValue>
    ofType(const std::string &type) const
    {
        std::vector<JsonValue> out;
        for (const std::string &line : lines) {
            const JsonValue v = parsed(line);
            if (v.find("type") && v.find("type")->string == type)
                out.push_back(v);
        }
        return out;
    }
};

const char *kSmallRequest =
    R"({"id":"t1","workloads":["compute"],"profiles":["OoO","Strict"],)"
    R"("fastforward":6000,"warmup":500,"measure":1000,"samples":2,)"
    R"("jobs":2,"chain":true})";

TEST(GridService, RunsGridAndStreamsCellsThenDone)
{
    GridService service;
    Captured cap;
    ASSERT_TRUE(service.handleRequest(kSmallRequest, cap.emit()));

    const auto cells = cap.ofType("cell");
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].find("workload")->string, "compute");
    EXPECT_EQ(cells[0].find("profile")->string, "OoO");
    EXPECT_EQ(cells[1].find("profile")->string, "Strict");
    for (const JsonValue &cell : cells) {
        EXPECT_EQ(cell.find("id")->string, "t1");
        EXPECT_GT(cell.find("cpi")->number, 0.0);
        EXPECT_EQ(cell.find("samples")->number, 2.0);
    }

    const auto progress = cap.ofType("progress");
    ASSERT_FALSE(progress.empty());
    EXPECT_EQ(progress.back().find("done")->number, 4.0);
    EXPECT_EQ(progress.back().find("total")->number, 4.0);

    const auto done = cap.ofType("done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].find("cells")->number, 2.0);
    EXPECT_EQ(done[0].find("windows")->number, 4.0);
    // The done line is last.
    EXPECT_EQ(parsed(cap.lines.back()).find("type")->string, "done");

    EXPECT_EQ(service.stats().requests, 1u);
    EXPECT_EQ(service.stats().cells, 2u);
    EXPECT_EQ(service.stats().errors, 0u);
}

TEST(GridService, RejectsBadRequestsWithErrorLinesAndSurvives)
{
    GridService service;
    const struct {
        const char *request;
        const char *needle;
    } cases[] = {
        {"not json at all", "bad JSON"},
        {"[1,2,3]", "must be a JSON object"},
        {R"({"workloads":["nope"]})", "unknown workload"},
        {R"({"profiles":["NoSuch"]})", "unknown profile"},
        {R"({"chain":true})", "stride"},
        {R"({"samples":0})", "samples"},
        {R"({"measure":0})", "measure"},
        {R"({"samples":"three"})", "non-negative number"},
        {R"({"workloads":"compute"})", "array of strings"},
        {R"({"chain":1})", "boolean"},
        {R"({"smaples":9})", "unknown field 'smaples'"},
        {R"({"mshr":4})", "unknown field 'mshr'"},
        {R"({"reuse":false})", "unknown field 'reuse'"},
        {R"({"samples":1.9})", "samples"},
        {R"({"samples":4294967297})", "samples"},
        {R"({"measure":1e30})", "measure"},
        {R"({"jobs":4294967296})", "jobs"},
        // Numbers outside the RFC 8259 grammar are not JSON.
        {R"({"measure":0x3e8})", "bad JSON"},
        {R"({"measure":infinity})", "bad JSON"},
        {R"({"measure":nan})", "bad JSON"},
        {R"({"measure":+5})", "bad JSON"},
        {R"({"measure":.5})", "bad JSON"},
        {R"({"measure":01})", "bad JSON"},
    };
    for (const auto &c : cases) {
        Captured cap;
        EXPECT_FALSE(service.handleRequest(c.request, cap.emit()))
            << c.request;
        ASSERT_EQ(cap.lines.size(), 1u) << c.request;
        const JsonValue v = parsed(cap.lines[0]);
        EXPECT_EQ(v.find("type")->string, "error");
        EXPECT_NE(v.find("error")->string.find(c.needle),
                  std::string::npos)
            << "for " << c.request << " got: "
            << v.find("error")->string;
    }
    EXPECT_EQ(service.stats().errors, std::size(cases));
    EXPECT_EQ(service.stats().requests, 0u);

    // The service still serves real work afterwards.
    Captured cap;
    EXPECT_TRUE(service.handleRequest(kSmallRequest, cap.emit()));
    EXPECT_EQ(cap.ofType("done").size(), 1u);
}

// --------------------------------------------------------------------------
// GridSpec: the command-line and JSON front ends
// --------------------------------------------------------------------------

TEST(GridSpec, CliSpellingOfSmallRequestMatchesJson)
{
    GridSpec json;
    ASSERT_EQ(gridSpecFromJson(parsed(kSmallRequest), json), "");

    GridSpec cli;
    ASSERT_EQ(gridSpecFromArgs({"--fastforward=6000", "--warmup=500",
                                "--insts=1000", "--samples=2",
                                "--jobs=2", "--chain"},
                               cli),
              "");
    // Workloads and profiles are fixed by each bench, not flags.
    cli.workloads = {"compute"};
    cli.profiles = {Profile::kOoo, Profile::kStrict};
    EXPECT_EQ(cli, json);

    const std::vector<RunResult> a =
        runGrid(cli.makeWorkloads(), cli.configs(), cli.params);
    const std::vector<RunResult> b =
        runGrid(json.makeWorkloads(), json.configs(), json.params);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cpiSamples, b[i].cpiSamples);
        EXPECT_EQ(a[i].mean.cycles, b[i].mean.cycles);
        EXPECT_EQ(a[i].mean.mlp, b[i].mean.mlp);
    }
}

TEST(GridSpec, CliRejectsValuesThatDoNotFitTheirField)
{
    const struct {
        std::vector<std::string> args;
        const char *needle;
    } cases[] = {
        {{"--samples=4294967297"}, "samples"},
        {{"--jobs=4294967296"}, "jobs"},
        {{"--smt=4294967296"}, "--smt="},
        {{"--smt=0"}, "--smt="},
        {{"--mshr=4294967296"}, "--mshr="},
        {{"--seed=18446744073709551616"}, "seed"},
        {{"--samples=-1"}, "samples"},
        {{"--warmup= 5"}, "warmup"},
        {{"--insts=1e3"}, "measure"},
        {{"--insts=0"}, "measure"},
        {{"--chain"}, "stride"},
        {{"--chain=1"}, "unrecognized"},
        {{"--no-reuse"}, "unrecognized"},
        {{"--smt-policy=fifo"}, "fifo"},
    };
    for (const auto &c : cases) {
        GridSpec spec;
        const std::string error =
            gridSpecFromArgs(c.args, spec, kCliMshr | kCliSmt);
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << c.args[0] << " gave: '" << error << "'";
    }

    // The hardware flags exist only where a bench opts into them.
    GridSpec spec;
    EXPECT_NE(gridSpecFromArgs({"--mshr=4"}, spec).find("unrecognized"),
              std::string::npos);
    EXPECT_EQ(gridSpecFromArgs({"--mshr=4", "--smt=2",
                                "--smt-policy=icount",
                                "--samples=4294967295"},
                               spec, kCliMshr | kCliSmt),
              "");
    EXPECT_EQ(spec.params.samples, 4294967295u);
    const SimConfig cfg = spec.configs().front();
    EXPECT_EQ(cfg.memory.mshrEntries, 4u);
    EXPECT_EQ(cfg.core.smtThreads, 2u);
    EXPECT_EQ(cfg.core.smtFetchPolicy, SmtFetchPolicy::kIcount);
}

TEST(GridSpec, ParseUnsignedIsStrict)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseUnsigned("4294967295", 4294967295u), 4294967295u);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1.0", "0x10",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseUnsigned(bad).has_value()) << bad;
    }
    EXPECT_FALSE(parseUnsigned("4294967296", 4294967295u).has_value());
}

TEST(GridService, SharesCorpusAcrossRequestsBitIdentically)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "grid_service_corpus";
    fs::remove_all(dir);
    CheckpointStore store(dir.string());
    GridService service(&store);

    Captured first, second;
    ASSERT_TRUE(service.handleRequest(kSmallRequest, first.emit()));
    ASSERT_TRUE(service.handleRequest(kSmallRequest, second.emit()));

    const auto cold = first.ofType("done");
    const auto warm = second.ofType("done");
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(cold[0].find("ckpt_hits")->number, 0.0);
    EXPECT_GT(cold[0].find("ckpt_misses")->number, 0.0);
    EXPECT_GT(warm[0].find("ckpt_hits")->number, 0.0);
    EXPECT_EQ(warm[0].find("ckpt_misses")->number, 0.0);
    EXPECT_EQ(warm[0].find("ff_runs")->number, 0.0)
        << "second request must run no fast-forwards";

    // Cell lines are rendered deterministically: the warm request's
    // results are byte-identical to the cold request's.
    const auto cold_cells = first.ofType("cell");
    const auto warm_cells = second.ofType("cell");
    ASSERT_EQ(cold_cells.size(), warm_cells.size());
    std::vector<std::string> cold_lines, warm_lines;
    for (const std::string &line : first.lines)
        if (line.find("\"cell\"") != std::string::npos)
            cold_lines.push_back(line);
    for (const std::string &line : second.lines)
        if (line.find("\"cell\"") != std::string::npos)
            warm_lines.push_back(line);
    EXPECT_EQ(cold_lines, warm_lines);

    EXPECT_EQ(service.stats().ckptHits,
              static_cast<std::uint64_t>(
                  warm[0].find("ckpt_hits")->number));
    fs::remove_all(dir);
}

} // namespace
} // namespace nda
