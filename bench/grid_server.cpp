/**
 * @file
 * Long-running grid server: newline-delimited JSON requests in, JSON
 * result lines out (harness/grid_service.hh documents the protocol).
 * By default it speaks the line protocol on stdin/stdout — pipe
 * requests in, read responses back, one process per experiment
 * script:
 *
 *   printf '%s\n' '{"workloads":["compute"],"profiles":["OoO"],
 *                   "fastforward":100000,"samples":2}' |
 *       ./grid_server --ckpt-dir=corpus
 *
 * With --socket=PATH it instead listens on a unix-domain stream
 * socket and serves connections one at a time (requests from a
 * connection are handled in order; the grid itself parallelizes
 * across --jobs-controlled worker lanes per request).
 *
 * The point of staying resident: the checkpoint corpus (--ckpt-dir)
 * is opened once and shared across every request, so repeated grids
 * over the same (workload, seed, stride, geometry) recipes skip
 * their fast-forward phase entirely after the first request.
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_common.hh"
#include "ckpt/checkpoint_store.hh"
#include "harness/grid_service.hh"

using namespace nda;

namespace {

void
printUsage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --socket=PATH        listen on a unix-domain socket "
        "instead of stdin\n"
        "  --ckpt-dir=DIR       persistent checkpoint corpus shared "
        "across requests\n"
        "  --ckpt-max-bytes=N   LRU size cap for the corpus "
        "(0 = unbounded)\n"
        "  --no-ckpt            run without a corpus even if "
        "--ckpt-dir was given\n"
        "  --quiet              warnings and results only\n"
        "  -v                   verbose (debug-level) logging\n",
        prog);
}

/** Serve one stream: parse request lines, write response lines. */
void
serveStream(GridService &service, std::FILE *in,
            const GridService::Emit &emit)
{
    std::string pending;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), in)) {
        pending += buf;
        if (pending.empty() || pending.back() != '\n')
            continue; // long line: keep accumulating
        pending.pop_back();
        if (!pending.empty())
            service.handleRequest(pending, emit);
        pending.clear();
    }
    if (!pending.empty())
        service.handleRequest(pending, emit);
}

int
serveSocket(GridService &service, const std::string &path)
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("socket");
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "socket path too long: %s\n",
                     path.c_str());
        ::close(listener);
        return 1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str()); // stale socket from a previous run
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener, 4) != 0) {
        std::perror(path.c_str());
        ::close(listener);
        return 1;
    }
    NDA_INFORM("grid_server listening on %s", path.c_str());

    for (;;) {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0)
            break;
        std::FILE *in = ::fdopen(conn, "r");
        if (!in) {
            ::close(conn);
            continue;
        }
        const auto emit = [conn](const std::string &response) {
            std::string framed = response;
            framed += '\n';
            std::size_t off = 0;
            while (off < framed.size()) {
                const ssize_t n = ::write(conn, framed.data() + off,
                                          framed.size() - off);
                if (n <= 0)
                    return; // client went away mid-response
                off += static_cast<std::size_t>(n);
            }
        };
        serveStream(service, in, emit);
        std::fclose(in); // closes conn too
    }
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    BenchCkpt ckpt;
    logVerbosity = std::max(logVerbosity, 1);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (arg.rfind("--socket=", 0) == 0) {
            socket_path = arg.substr(9);
            if (socket_path.empty())
                error = "--socket= needs a path";
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (!ckpt.parseArg(arg, argv[0]) &&
                   !BenchObs::parseVerbosity(arg)) {
            error = "unrecognized argument '" + arg + "'";
        }
        if (!error.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            printUsage(argv[0]);
            return 2;
        }
    }

    // A SIGPIPE from a vanished client must not kill the server; the
    // write loop already treats short writes as disconnect.
    std::signal(SIGPIPE, SIG_IGN);

    const std::unique_ptr<CheckpointStore> corpus = ckpt.open();
    GridService service(corpus.get());

    if (!socket_path.empty())
        return serveSocket(service, socket_path);

    serveStream(service, stdin, [](const std::string &response) {
        std::fwrite(response.data(), 1, response.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    });
    return 0;
}
