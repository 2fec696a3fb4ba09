#include "harness/grid_service.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "ckpt/checkpoint_store.hh"
#include "harness/runner.hh"
#include "obs/json_writer.hh"
#include "workloads/workload.hh"

namespace nda {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &member : object) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

/**
 * Recursive-descent JSON parser. Fail-stop like the checkpoint
 * Cursor: any malformed byte flips `ok_` and every later step is a
 * no-op, so callers check once at the end. Depth-bounded, because a
 * request line is attacker-ish input (a stray client) and a
 * 10k-bracket line must not overflow the stack.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        parseValue(out, 0);
        skipSpace();
        if (ok_ && pos_ != text_.size())
            fail("trailing garbage");
        return ok_;
    }

  private:
    static constexpr int kMaxDepth = 32;

    void
    fail(const char *what)
    {
        if (!ok_)
            return;
        ok_ = false;
        error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (ok_ && pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    void
    parseValue(JsonValue &out, int depth)
    {
        if (!ok_)
            return;
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return;
        }
        skipSpace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return;
        }
        const char c = text_[pos_];
        if (c == '{') {
            parseObject(out, depth);
        } else if (c == '[') {
            parseArray(out, depth);
        } else if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            parseString(out.string);
        } else if (literal("true")) {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
        } else if (literal("false")) {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
        } else if (literal("null")) {
            out.kind = JsonValue::Kind::kNull;
        } else {
            parseNumber(out);
        }
    }

    void
    parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::kObject;
        consume('{');
        skipSpace();
        if (consume('}'))
            return;
        while (ok_) {
            skipSpace();
            std::string key;
            parseString(key);
            skipSpace();
            if (!consume(':')) {
                fail("expected ':'");
                return;
            }
            JsonValue member;
            parseValue(member, depth + 1);
            out.object.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (consume('}'))
                return;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return;
            }
        }
    }

    void
    parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::kArray;
        consume('[');
        skipSpace();
        if (consume(']'))
            return;
        while (ok_) {
            JsonValue elem;
            parseValue(elem, depth + 1);
            out.array.push_back(std::move(elem));
            skipSpace();
            if (consume(']'))
                return;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return;
            }
        }
    }

    void
    parseString(std::string &out)
    {
        if (!consume('"')) {
            fail("expected string");
            return;
        }
        while (ok_) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return;
            }
            const char c = text_[pos_++];
            if (c == '"')
                return;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                // The protocol is ASCII; decode BMP escapes to the
                // low byte and reject nothing — lossy but total.
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("bad \\u escape");
                        return;
                    }
                }
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                fail("unknown escape");
                return;
            }
        }
    }

    void
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start) {
            fail("expected value");
            return;
        }
        out.kind = JsonValue::Kind::kNumber;
        out.number = v;
        pos_ += static_cast<std::size_t>(end - start);
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** One response line of `type` in compact JSON, echoing the request's
 *  `id` when it had one; `fill` writes the rest. */
std::string
line(const char *type, const std::string &id,
     const std::function<void(JsonWriter &)> &fill)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("type");
    w.value(type);
    if (!id.empty()) {
        w.key("id");
        w.value(id);
    }
    fill(w);
    w.endObject();
    return w.str();
}

/** A request member as a field-table value: exact non-negative
 *  integers and booleans; anything else is rejected by the table. */
FieldValue
fieldValue(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::kBool)
        return v.boolean;
    // 2^64: the first double past every uint64_t.
    if (v.kind == JsonValue::Kind::kNumber && v.number >= 0 &&
        v.number < 18446744073709551616.0 &&
        v.number == std::floor(v.number)) {
        return static_cast<std::uint64_t>(v.number);
    }
    return {};
}

/** An array-of-strings member; "" or an error naming `key`. */
std::string
nameList(const JsonValue &v, const std::string &key,
         std::vector<std::string> &names)
{
    const std::string error =
        "field '" + key + "' must be an array of strings";
    if (v.kind != JsonValue::Kind::kArray)
        return error;
    for (const JsonValue &elem : v.array) {
        if (elem.kind != JsonValue::Kind::kString)
            return error;
        names.push_back(elem.string);
    }
    return "";
}

} // namespace

bool
GridService::handleRequest(const std::string &request_line,
                           const Emit &emit)
{
    std::string id;
    const auto error = [&](const std::string &message) {
        ++stats_.errors;
        emit(line("error", id, [&](JsonWriter &w) {
            w.key("error");
            w.value(message);
        }));
        return false;
    };

    JsonValue req;
    std::string parse_error;
    if (!parseJson(request_line, req, parse_error))
        return error("bad JSON: " + parse_error);
    if (const JsonValue *v = req.find("id");
        v && v->kind == JsonValue::Kind::kString) {
        id = v->string;
    }
    GridSpec spec;
    if (const std::string bad = gridSpecFromJson(req, spec); !bad.empty())
        return error(bad);
    const std::vector<std::unique_ptr<Workload>> workloads =
        spec.makeWorkloads();

    GridStats gs;
    const auto progress = [&](std::size_t done, std::size_t total) {
        emit(line("progress", id, [&](JsonWriter &w) {
            w.key("done");
            w.value(static_cast<std::uint64_t>(done));
            w.key("total");
            w.value(static_cast<std::uint64_t>(total));
        }));
    };
    const std::vector<RunResult> results =
        runGrid(workloads, spec.configs(), spec.params, progress, &gs,
                corpus_);

    for (std::size_t w_idx = 0; w_idx < workloads.size(); ++w_idx) {
        for (std::size_t c = 0; c < spec.profiles.size(); ++c) {
            const RunResult &r =
                results[w_idx * spec.profiles.size() + c];
            emit(line("cell", id, [&](JsonWriter &w) {
                w.key("workload");
                w.value(workloads[w_idx]->name());
                w.key("profile");
                w.value(profileName(spec.profiles[c]));
                w.key("cpi");
                w.value(r.mean.cpi);
                w.key("ci95");
                w.value(r.cpiCi95);
                w.key("mlp");
                w.value(r.mean.mlp);
                w.key("samples");
                w.value(static_cast<std::uint64_t>(
                    r.cpiSamples.size()));
                // CPI-stack summary (requests with "cpi_stack":
                // true): per-cause slot counts, nonzero buckets
                // only; the slot identity holds on the full vector,
                // so sum(slots) == slot_width x cycles exactly.
                if (!r.mean.slotStack.empty()) {
                    w.key("slot_width");
                    w.value(r.mean.slotWidth);
                    w.key("cycles");
                    w.value(r.mean.cycles);
                    w.key("slots");
                    w.beginObject();
                    for (int s = 0; s < kNumStallCauses; ++s) {
                        if (!r.mean.slotStack[s])
                            continue;
                        w.key(stallCauseStatName(
                            static_cast<StallCause>(s)));
                        w.value(r.mean.slotStack[s]);
                    }
                    w.endObject();
                }
            }));
        }
    }

    ++stats_.requests;
    stats_.cells += results.size();
    stats_.ckptHits += gs.ckptHits;
    stats_.ckptMisses += gs.ckptMisses;
    stats_.ckptBytes += gs.ckptBytes;

    emit(line("done", id, [&](JsonWriter &w) {
        w.key("cells");
        w.value(static_cast<std::uint64_t>(results.size()));
        w.key("windows");
        w.value(gs.windows);
        w.key("ckpt_hits");
        w.value(gs.ckptHits);
        w.key("ckpt_misses");
        w.value(gs.ckptMisses);
        w.key("ckpt_bytes");
        w.value(gs.ckptBytes);
        w.key("ckpt_chain_len");
        w.value(gs.ckptChainLen);
        w.key("ff_runs");
        w.value(gs.ffRuns);
        w.key("ff_insts");
        w.value(gs.ffInsts);
    }));
    return true;
}

std::string
gridSpecFromJson(const JsonValue &req, GridSpec &spec)
{
    if (req.kind != JsonValue::Kind::kObject)
        return "request must be a JSON object";
    for (const auto &[key, value] : req.object) {
        std::string error;
        if (key == "id") {
            continue;
        } else if (key == "workloads") {
            spec.workloads.clear();
            error = nameList(value, key, spec.workloads);
        } else if (key == "profiles") {
            std::vector<std::string> names;
            if (error = nameList(value, key, names); !error.empty())
                return error;
            if (!names.empty())
                spec.profiles.clear();
            for (const std::string &name : names) {
                Profile prof;
                if (!profileByName(name, prof))
                    return "unknown profile '" + name + "'";
                spec.profiles.push_back(prof);
            }
        } else {
            error = spec.setField(key, fieldValue(value));
        }
        if (!error.empty())
            return error;
    }
    return spec.check();
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text, error);
    return parser.parse(out);
}

} // namespace nda
