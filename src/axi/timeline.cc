#include "axi/timeline.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/log.h"

namespace beethoven
{

const char *
axiChannelName(AxiChannel c)
{
    switch (c) {
      case AxiChannel::AR: return "AR";
      case AxiChannel::R:  return "R";
      case AxiChannel::AW: return "AW";
      case AxiChannel::W:  return "W";
      case AxiChannel::B:  return "B";
    }
    return "?";
}

namespace
{

/** Per-transaction summary assembled from the raw event stream. */
struct TxnRow
{
    bool isRead = false;
    u32 id = 0;
    u64 tag = 0;
    Cycle reqCycle = 0;
    std::vector<Cycle> beatCycles;
    Cycle doneCycle = 0;
};

std::vector<TxnRow>
assembleRows(const std::vector<AxiEvent> &events)
{
    std::vector<TxnRow> rows;
    std::map<u64, std::size_t> read_rows, write_rows;
    for (const auto &e : events) {
        switch (e.channel) {
          case AxiChannel::AR: {
            TxnRow row;
            row.isRead = true;
            row.id = e.id;
            row.tag = e.tag;
            row.reqCycle = e.cycle;
            read_rows[e.tag] = rows.size();
            rows.push_back(row);
            break;
          }
          case AxiChannel::AW: {
            TxnRow row;
            row.isRead = false;
            row.id = e.id;
            row.tag = e.tag;
            row.reqCycle = e.cycle;
            write_rows[e.tag] = rows.size();
            rows.push_back(row);
            break;
          }
          case AxiChannel::R: {
            auto it = read_rows.find(e.tag);
            if (it == read_rows.end())
                break;
            rows[it->second].beatCycles.push_back(e.cycle);
            if (e.last)
                rows[it->second].doneCycle = e.cycle;
            break;
          }
          case AxiChannel::W: {
            auto it = write_rows.find(e.tag);
            if (it == write_rows.end())
                break;
            rows[it->second].beatCycles.push_back(e.cycle);
            break;
          }
          case AxiChannel::B: {
            auto it = write_rows.find(e.tag);
            if (it == write_rows.end())
                break;
            rows[it->second].doneCycle = e.cycle;
            break;
          }
        }
    }
    return rows;
}

} // namespace

void
AxiTimeline::render(std::ostream &os, unsigned width) const
{
    if (_events.empty()) {
        os << "(no AXI activity recorded)\n";
        return;
    }
    Cycle t0 = _events.front().cycle;
    Cycle t1 = t0;
    for (const auto &e : _events)
        t1 = std::max(t1, e.cycle);
    const double span = static_cast<double>(t1 - t0 + 1);
    auto col = [&](Cycle c) -> unsigned {
        return static_cast<unsigned>(
            static_cast<double>(c - t0) / span * (width - 1));
    };

    os << "cycles " << t0 << " .. " << t1
       << "  ('A' request accepted, '=' data beat, '#' completion)\n";
    for (const auto &row : assembleRows(_events)) {
        std::string line(width, ' ');
        line[col(row.reqCycle)] = 'A';
        for (Cycle c : row.beatCycles) {
            char &ch = line[col(c)];
            if (ch == ' ')
                ch = '=';
        }
        if (row.doneCycle >= row.reqCycle)
            line[col(row.doneCycle)] = '#';
        std::ostringstream label;
        label << (row.isRead ? "RD" : "WR") << " id=" << row.id
              << " tag=" << row.tag;
        os << line << " | " << label.str() << "\n";
    }
}

AxiProtocolChecker::IdQueues &
AxiProtocolChecker::queues(u32 id)
{
    auto it = std::lower_bound(
        _ids.begin(), _ids.end(), id,
        [](const IdQueues &q, u32 key) { return q.id < key; });
    if (it == _ids.end() || it->id != id) {
        it = _ids.insert(it, IdQueues{});
        it->id = id;
    }
    return *it;
}

namespace
{

/** A violation message; only built when there is one. */
template <typename... Parts>
std::string
describe(const Parts &...parts)
{
    std::ostringstream err;
    (err << ... << parts);
    return err.str();
}

} // namespace

std::string
AxiProtocolChecker::observe(const AxiEvent &e)
{
    ++_eventsSeen;

    // ID-leak screen: transactions must use IDs the elaborator
    // actually handed out.
    const bool is_read =
        e.channel == AxiChannel::AR || e.channel == AxiChannel::R;
    if (is_read && _readIdBound != 0 && e.id >= _readIdBound) {
        return describe(axiChannelName(e.channel), " uses read id ", e.id,
                        " outside the allocated space [0, ", _readIdBound,
                        ")");
    }
    if (!is_read && _writeIdBound != 0 && e.id >= _writeIdBound &&
        e.channel != AxiChannel::W) {
        // W beats are tag-matched, not ID-matched, but AW and B carry
        // real bus IDs.
        return describe(axiChannelName(e.channel), " uses write id ", e.id,
                        " outside the allocated space [0, ", _writeIdBound,
                        ")");
    }

    switch (e.channel) {
      case AxiChannel::AR:
        queues(e.id).reads.push({e.tag, e.beats});
        ++_reads;
        break;
      case AxiChannel::AW:
        queues(e.id).writes.push({e.tag, e.beats});
        if (e.beats != 0)
            _openWrites.push({e.tag, e.id, e.beats, 0});
        ++_writes;
        break;
      case AxiChannel::R: {
        Ring<Outstanding> &q = queues(e.id).reads;
        if (q.empty()) {
            return describe("R beat for id ", e.id,
                            " with no outstanding read");
        }
        // Same-ID ordering: data must belong to the oldest txn.
        Outstanding &head = q.front();
        if (head.tag != e.tag) {
            return describe("R beat tag ", e.tag, " on id ", e.id,
                            " violates same-ID ordering (expected tag ",
                            head.tag, ")");
        }
        ++head.beatsSeen;
        const bool should_be_last = head.beatsSeen == head.beatsExpected;
        if (e.last != should_be_last) {
            return describe("R last flag mismatch on tag ", e.tag, " (beat ",
                            head.beatsSeen, "/", head.beatsExpected, ")");
        }
        if (e.last) {
            q.erase(0);
            --_reads;
        }
        break;
      }
      case AxiChannel::W: {
        // The oldest burst still taking data with this tag: the open
        // one (the front) unless write data interleaves.
        std::size_t i = 0;
        while (i < _openWrites.size() && _openWrites.at(i).tag != e.tag)
            ++i;
        if (i == _openWrites.size()) {
            return describe("W beat with tag ", e.tag,
                            " matches no outstanding write");
        }
        OpenWrite &open = _openWrites.at(i);
        ++open.beatsSeen;
        const bool last = open.beatsSeen == open.beatsExpected;
        if (e.last != last)
            return describe("W last flag mismatch on tag ", e.tag);
        if (last) {
            // Its AW is the newest on the ID still waiting for data.
            Ring<Outstanding> &q = queues(open.id).writes;
            for (std::size_t k = q.size(); k-- != 0;) {
                Outstanding &o = q.at(k);
                if (o.tag == e.tag && !o.dataDone) {
                    o.dataDone = true;
                    break;
                }
            }
            _openWrites.erase(i);
        }
        break;
      }
      case AxiChannel::B: {
        Ring<Outstanding> &q = queues(e.id).writes;
        if (q.empty()) {
            return describe("B response for id ", e.id,
                            " with no outstanding write");
        }
        if (q.front().tag != e.tag) {
            return describe("B response tag ", e.tag, " on id ", e.id,
                            " violates same-ID ordering");
        }
        if (!q.front().dataDone) {
            return describe("B response before final W beat on tag ",
                            e.tag);
        }
        q.erase(0);
        --_writes;
        break;
      }
    }
    return "";
}

std::string
checkAxiProtocol(const std::vector<AxiEvent> &events)
{
    AxiProtocolChecker checker;
    for (const AxiEvent &e : events) {
        std::string err = checker.observe(e);
        if (!err.empty())
            return err;
    }
    return "";
}

} // namespace beethoven
