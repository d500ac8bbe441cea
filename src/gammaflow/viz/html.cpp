// Self-contained interactive HTML renderer. One output file, zero network
// dependencies: the graph/journal data is embedded as JSON in
// <script id="gf-data" type="application/json">, the CSS and JS are inline,
// and the JS is plain DOM + SVG (pan/zoom via the viewBox, a store scrubber
// replaying the journal's per-round deltas, and a provenance panel mapping
// fires back onto graph nodes).
#include <algorithm>
#include <map>
#include <ostream>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "gammaflow/common/json.hpp"
#include "gammaflow/viz/viz.hpp"

namespace gammaflow::viz {
namespace {

struct VizNode {
  std::string key;    // journal reaction key (provenance -> node mapping)
  std::string label;  // display text
  std::string kind;
  long long cls = -1;
  long long stage = -1;
  double x = 0.0;
  double y = 0.0;
};

struct VizEdge {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::string label;
  const char* kind = "flow";  // flow | compete | feed
};

std::string df_node_label(const dataflow::Node& n) {
  std::ostringstream os;
  switch (n.kind) {
    case dataflow::NodeKind::Const: os << n.constant; break;
    case dataflow::NodeKind::Arith:
    case dataflow::NodeKind::Cmp:
      os << expr::to_string(n.op);
      if (n.has_immediate) os << n.constant;
      break;
    case dataflow::NodeKind::Steer: os << "steer"; break;
    case dataflow::NodeKind::IncTag: os << "inctag"; break;
    case dataflow::NodeKind::DecTag: os << "dectag"; break;
    case dataflow::NodeKind::Output: os << "out"; break;
  }
  if (!n.name.empty()) os << ' ' << n.name;
  return os.str();
}

/// The dataflow view: BFS layering from the Const roots (min distance), one
/// row per layer. Cycles (loop-back edges) revisit placed nodes and are
/// simply drawn upward.
void build_dataflow_view(const dataflow::Graph& graph,
                         std::vector<VizNode>& nodes,
                         std::vector<VizEdge>& edges) {
  const std::size_t n = graph.node_count();
  std::vector<int> layer(n, -1);
  std::queue<dataflow::NodeId> queue;
  for (const dataflow::NodeId id : graph.roots()) {
    layer[id] = 0;
    queue.push(id);
  }
  while (!queue.empty()) {
    const dataflow::NodeId id = queue.front();
    queue.pop();
    for (const dataflow::Edge& e : graph.edges()) {
      if (e.src != id || layer[e.dst] >= 0) continue;
      layer[e.dst] = layer[id] + 1;
      queue.push(e.dst);
    }
  }
  for (int& l : layer) {
    if (l < 0) l = 0;  // unreachable (e.g. injection-only subgraphs)
  }
  std::vector<int> occupancy;  // next free column per layer
  nodes.resize(n);
  for (dataflow::NodeId id = 0; id < n; ++id) {
    const dataflow::Node& node = graph.node(id);
    VizNode& vn = nodes[id];
    vn.key = node.name.empty()
                 ? std::string(to_string(node.kind)) + "#" + std::to_string(id)
                 : node.name;
    vn.label = df_node_label(node);
    vn.kind = to_string(node.kind);
    const int l = layer[id];
    if (static_cast<std::size_t>(l) >= occupancy.size()) {
      occupancy.resize(static_cast<std::size_t>(l) + 1, 0);
    }
    vn.x = 100.0 + 170.0 * occupancy[static_cast<std::size_t>(l)]++;
    vn.y = 70.0 + 120.0 * l;
  }
  for (const dataflow::Edge& e : graph.edges()) {
    VizEdge ve;
    ve.src = e.src;
    ve.dst = e.dst;
    ve.label = e.label;
    edges.push_back(std::move(ve));
  }
}

/// The Gamma view: one node per reaction, one column per conflict class (per
/// stage), interference edges with their kind recomputed from footprints.
void build_gamma_view(const gamma::Program& program,
                      const analysis::InterferenceReport* report,
                      std::vector<VizNode>& nodes,
                      std::vector<VizEdge>& edges) {
  std::map<long long, int> column_fill;  // class/column -> members placed
  std::size_t i = 0;
  for (std::size_t s = 0; s < program.stages().size(); ++s) {
    for (const gamma::Reaction& r : program.stages()[s]) {
      VizNode vn;
      vn.key = r.name();
      vn.label = r.name();
      vn.kind = "reaction";
      vn.stage = static_cast<long long>(s);
      if (report != nullptr && i < report->class_of.size()) {
        vn.cls = static_cast<long long>(report->class_of[i]);
      }
      const long long col = vn.cls >= 0 ? vn.cls : static_cast<long long>(i);
      vn.x = 120.0 + 220.0 * static_cast<double>(col);
      vn.y = 80.0 + 150.0 * static_cast<double>(s) + 95.0 * column_fill[col]++;
      nodes.push_back(std::move(vn));
      ++i;
    }
  }
  if (report == nullptr) return;
  for (const auto& [a, b] : report->edges) {
    const gamma::Footprint& fa = report->footprints[a];
    const gamma::Footprint& fb = report->footprints[b];
    if (analysis::compete(fa, fb)) {
      edges.push_back(VizEdge{a, b, "", "compete"});
    }
    if (analysis::feeds(fa, fb)) edges.push_back(VizEdge{a, b, "", "feed"});
    if (analysis::feeds(fb, fa)) edges.push_back(VizEdge{b, a, "", "feed"});
  }
}

void write_data_json(std::ostream& os, const HtmlInputs& inputs) {
  std::vector<VizNode> nodes;
  std::vector<VizEdge> edges;
  const bool dataflow_view = inputs.graph != nullptr;
  if (dataflow_view) {
    build_dataflow_view(*inputs.graph, nodes, edges);
  } else if (inputs.program != nullptr) {
    build_gamma_view(*inputs.program, inputs.interference, nodes, edges);
  }
  os << "{\"title\":" << json_quote(inputs.title);
  os << ",\"kind\":\"" << (dataflow_view ? "dataflow" : "gamma") << '"';
  os << ",\"classCount\":"
     << (inputs.interference != nullptr ? inputs.interference->class_count : 0);
  if (inputs.interference != nullptr) {
    os << ",\"verdict\":\"" << to_string(inputs.interference->verdict) << '"';
  } else {
    os << ",\"verdict\":null";
  }
  os << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const VizNode& n = nodes[i];
    if (i != 0) os << ',';
    os << "{\"key\":" << json_quote(n.key)
       << ",\"label\":" << json_quote(n.label);
    os << ",\"kind\":\"" << n.kind << "\",\"cls\":" << n.cls
       << ",\"stage\":" << n.stage << ",\"x\":" << n.x << ",\"y\":" << n.y
       << '}';
  }
  os << "],\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const VizEdge& e = edges[i];
    if (i != 0) os << ',';
    os << "{\"src\":" << e.src << ",\"dst\":" << e.dst
       << ",\"label\":" << json_quote(e.label);
    os << ",\"kind\":\"" << e.kind << "\"}";
  }
  os << "],\"journal\":";
  if (inputs.journal != nullptr) {
    os << obs::journal_to_string(*inputs.journal);
  } else {
    os << "null";
  }
  os << '}';
}

void html_text(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '&': os << "&amp;"; break;
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      default: os << c;
    }
  }
}

constexpr const char* kCss = R"css(
:root { color-scheme: light; }
* { box-sizing: border-box; }
body { margin: 0; font: 13px/1.45 system-ui, sans-serif; color: #263238;
       background: #fafafa; height: 100vh; display: flex; flex-direction: column; }
header { padding: 8px 14px; background: #263238; color: #eceff1;
         display: flex; gap: 14px; align-items: baseline; flex-wrap: wrap; }
header h1 { font-size: 15px; margin: 0; }
header .meta { color: #b0bec5; font-size: 12px; }
main { flex: 1; display: grid; grid-template-columns: 1fr 380px; min-height: 0; }
#gf-graph { position: relative; overflow: hidden; background:
  repeating-linear-gradient(0deg, #fafafa, #fafafa 24px, #f4f4f4 25px); }
#gf-graph svg { width: 100%; height: 100%; cursor: grab; display: block; }
#gf-graph svg:active { cursor: grabbing; }
aside { border-left: 1px solid #cfd8dc; background: #fff; display: flex;
        flex-direction: column; min-height: 0; }
#gf-controls { padding: 10px 12px; border-bottom: 1px solid #eceff1; }
#gf-controls input[type=range] { width: 100%; }
#gf-round-label { font-size: 12px; color: #546e7a; }
#gf-color { font-size: 12px; margin-left: 8px; }
#gf-store, #gf-provenance { padding: 8px 12px; overflow: auto; flex: 1;
                            border-bottom: 1px solid #eceff1; min-height: 0; }
h3 { font-size: 12px; text-transform: uppercase; letter-spacing: .06em;
     color: #78909c; margin: 4px 0 6px; }
.entry { font-family: ui-monospace, monospace; font-size: 12px; padding: 1px 4px; }
.entry .cnt { color: #90a4ae; display: inline-block; min-width: 3.5em; }
.entry.added { background: #e8f5e9; }
.entry.removed { background: #ffebee; }
.fire { font-family: ui-monospace, monospace; font-size: 12px; padding: 2px 4px;
        cursor: pointer; border-radius: 3px; }
.fire:hover { background: #eceff1; }
.fire.sel { background: #fff9c4; }
.muted { color: #90a4ae; font-style: italic; }
#gf-fire-detail { font-size: 12px; padding: 6px; background: #fafafa;
                  border: 1px solid #eceff1; border-radius: 4px; margin-top: 6px; }
#gf-fire-detail h4 { margin: 0 0 4px; font-family: ui-monospace, monospace; }
#gf-fire-detail .tok { font-family: ui-monospace, monospace; display: block; }
#gf-fire-detail .consumed .tok { color: #c62828; }
#gf-fire-detail .produced .tok { color: #2e7d32; }
.node rect { fill: #fff; stroke: #607d8b; stroke-width: 1.3; }
.node text { font-size: 11px; fill: #263238; pointer-events: none; }
.node { cursor: pointer; }
.node.hl rect { stroke: #f9a825; stroke-width: 3; }
.node.fired rect { filter: drop-shadow(0 0 3px #f9a825); }
#gf-legend { padding: 6px 12px; font-size: 11px; color: #546e7a;
             display: flex; gap: 10px; flex-wrap: wrap; }
#gf-legend .sw { display: inline-block; width: 10px; height: 10px;
                 border-radius: 2px; margin-right: 3px; vertical-align: -1px; }
)css";

constexpr const char* kJs = R"js(
'use strict';
const data = JSON.parse(document.getElementById('gf-data').textContent);
const J = data.journal;
const svgNS = 'http://www.w3.org/2000/svg';
const palette = ['#1f77b4','#ff7f0e','#2ca02c','#d62728','#9467bd',
                 '#8c564b','#e377c2','#7f7f7f','#bcbd22','#17becf'];
function el(ns, tag, attrs, parent) {
  const e = ns ? document.createElementNS(ns, tag) : document.createElement(tag);
  for (const k in (attrs || {})) e.setAttribute(k, attrs[k]);
  if (parent) parent.appendChild(e);
  return e;
}
function esc(s) { return String(s).replace(/&/g, '&amp;').replace(/</g, '&lt;'); }

// ---------- header meta ----------
(function () {
  const m = document.getElementById('gf-meta');
  const bits = [data.kind + ' view', data.nodes.length + ' nodes'];
  if (data.verdict) bits.push('verdict: ' + data.verdict);
  if (J) {
    if (J.session) bits.push('session: ' + J.session);
    bits.push(J.engine + '/' + J.kind, 'outcome: ' + J.outcome,
              J.fires_total + ' fires' +
              (J.fires_dropped ? ' (' + J.fires_dropped + ' dropped)' : ''),
              J.rounds_total + ' rounds' +
              (J.rounds_dropped ? ' (' + J.rounds_dropped + ' dropped)' : ''));
  } else {
    bits.push('no journal');
  }
  m.textContent = bits.join(' · ');
})();

// ---------- graph ----------
const graphDiv = document.getElementById('gf-graph');
const svg = el(svgNS, 'svg', {}, graphDiv);
const defs = el(svgNS, 'defs', {}, svg);
const marker = el(svgNS, 'marker', {id: 'arrow', viewBox: '0 0 10 10',
  refX: '9', refY: '5', markerWidth: '7', markerHeight: '7',
  orient: 'auto-start-reverse'}, defs);
el(svgNS, 'path', {d: 'M0,0 L10,5 L0,10 z', fill: '#607d8b'}, marker);
const edgeLayer = el(svgNS, 'g', {}, svg);
const nodeLayer = el(svgNS, 'g', {}, svg);

let vb = (function () {
  let x0 = 1e9, y0 = 1e9, x1 = -1e9, y1 = -1e9;
  for (const n of data.nodes) {
    x0 = Math.min(x0, n.x - 120); y0 = Math.min(y0, n.y - 60);
    x1 = Math.max(x1, n.x + 120); y1 = Math.max(y1, n.y + 60);
  }
  if (!data.nodes.length) { x0 = 0; y0 = 0; x1 = 400; y1 = 300; }
  return [x0, y0, x1 - x0, y1 - y0];
})();
function setVB() { svg.setAttribute('viewBox', vb.join(' ')); }
setVB();

for (const e of data.edges) {
  const a = data.nodes[e.src], b = data.nodes[e.dst];
  let dx = b.x - a.x, dy = b.y - a.y;
  const len = Math.hypot(dx, dy) || 1;
  dx /= len; dy /= len;
  const trim = Math.min(38, len / 2 - 2);
  const line = el(svgNS, 'line', {
    x1: a.x + dx * trim, y1: a.y + dy * trim,
    x2: b.x - dx * trim, y2: b.y - dy * trim,
    stroke: '#90a4ae', 'stroke-width': 1.4}, edgeLayer);
  if (e.kind === 'compete') {
    line.setAttribute('stroke', '#c62828');
    line.setAttribute('stroke-width', 2);
  } else if (e.kind === 'feed') {
    line.setAttribute('stroke', '#1565c0');
    line.setAttribute('stroke-dasharray', '6 4');
    line.setAttribute('marker-end', 'url(#arrow)');
  } else {
    line.setAttribute('marker-end', 'url(#arrow)');
  }
  if (e.label) {
    const t = el(svgNS, 'text', {x: (a.x + b.x) / 2, y: (a.y + b.y) / 2 - 4,
      'font-size': '10', fill: '#78909c', 'text-anchor': 'middle'}, edgeLayer);
    t.textContent = e.label;
  }
}

const nodeByKey = {};
const colorSel = document.getElementById('gf-color');
function fillFor(n) {
  const mode = colorSel.value;
  let idx = -1;
  if (mode === 'class') idx = n.cls;
  if (idx === null || idx < 0) return '#ffffff';
  return palette[idx % palette.length] + '40';
}
function strokeFor(n) {
  const mode = colorSel.value;
  let idx = -1;
  if (mode === 'class') idx = n.cls;
  if (idx === null || idx < 0) return '#607d8b';
  return palette[idx % palette.length];
}
for (const n of data.nodes) {
  const g = el(svgNS, 'g', {'class': 'node'}, nodeLayer);
  const w = Math.max(84, 14 + 7 * n.label.length);
  el(svgNS, 'rect', {x: n.x - w / 2, y: n.y - 18, width: w, height: 36,
                     rx: n.kind === 'reaction' ? 6 : 14}, g);
  const t = el(svgNS, 'text', {x: n.x, y: n.y + 4, 'text-anchor': 'middle'}, g);
  t.textContent = n.label;
  nodeByKey[n.key] = {g: g, n: n};
  g.addEventListener('click', function () { highlightKey(n.key); });
}
function recolor() {
  for (const k in nodeByKey) {
    const rec = nodeByKey[k];
    const r = rec.g.querySelector('rect');
    r.style.fill = fillFor(rec.n);
    r.style.stroke = strokeFor(rec.n);
  }
  renderLegend();
}
function renderLegend() {
  const lg = document.getElementById('gf-legend');
  const mode = colorSel.value;
  const seen = {};
  let html = '';
  for (const n of data.nodes) {
    const idx = mode === 'class' ? n.cls : -1;
    if (idx === null || idx < 0 || seen[idx]) continue;
    seen[idx] = true;
    html += '<span><span class="sw" style="background:' +
            palette[idx % palette.length] + '"></span>' + mode + ' ' + idx +
            '</span>';
  }
  if (data.kind === 'gamma') {
    html += '<span style="color:#c62828">— compete</span>' +
            '<span style="color:#1565c0">⇢ feed</span>';
  }
  lg.innerHTML = html;
}
function clearHl() {
  for (const k in nodeByKey) nodeByKey[k].g.classList.remove('hl');
}
function highlightKey(key) {
  clearHl();
  if (nodeByKey[key]) nodeByKey[key].g.classList.add('hl');
}
colorSel.addEventListener('change', recolor);
recolor();

svg.addEventListener('wheel', function (ev) {
  ev.preventDefault();
  const s = ev.deltaY > 0 ? 1.15 : 1 / 1.15;
  const r = svg.getBoundingClientRect();
  const px = vb[0] + (ev.clientX - r.left) / r.width * vb[2];
  const py = vb[1] + (ev.clientY - r.top) / r.height * vb[3];
  vb = [px - (px - vb[0]) * s, py - (py - vb[1]) * s, vb[2] * s, vb[3] * s];
  setVB();
}, {passive: false});
let drag = null;
svg.addEventListener('mousedown', function (ev) {
  drag = {x: ev.clientX, y: ev.clientY, vb: vb.slice()};
});
window.addEventListener('mousemove', function (ev) {
  if (!drag) return;
  const r = svg.getBoundingClientRect();
  vb[0] = drag.vb[0] - (ev.clientX - drag.x) / r.width * vb[2];
  vb[1] = drag.vb[1] - (ev.clientY - drag.y) / r.height * vb[3];
  setVB();
});
window.addEventListener('mouseup', function () { drag = null; });

// ---------- journal: scrubber + store + provenance ----------
const scrub = document.getElementById('gf-scrubber');
const storeDiv = document.getElementById('gf-store');
const provDiv = document.getElementById('gf-provenance');
const roundLabel = document.getElementById('gf-round-label');
const states = [];  // states[k] = Map after applying k journal rounds
function stateAt(k) {
  if (!states.length) {
    const m = new Map();
    if (J) for (const e in J.initial) m.set(e, J.initial[e]);
    states.push(m);
  }
  while (states.length <= k) {
    const m = new Map(states[states.length - 1]);
    const r = J.rounds[states.length - 1];
    for (const e in r.add) m.set(e, (m.get(e) || 0) + r.add[e]);
    for (const e in r.del) {
      const v = (m.get(e) || 0) - r.del[e];
      if (v > 0) m.set(e, v); else m.delete(e);
    }
    states.push(m);
  }
  return states[k];
}
function renderStore(k) {
  if (!J) {
    storeDiv.innerHTML = '<h3>store</h3><div class="muted">no journal</div>';
    return;
  }
  const cur = stateAt(k), prev = k > 0 ? stateAt(k - 1) : null;
  const keys = new Set(cur.keys());
  if (prev) for (const e of prev.keys()) keys.add(e);
  let total = 0;
  cur.forEach(function (v) { total += v; });
  let html = '';
  for (const e of Array.from(keys).sort()) {
    const c = cur.get(e) || 0;
    const p = prev ? (prev.get(e) || 0) : c;
    if (c === 0 && p === 0) continue;
    const cls = c > p ? 'added' : (c < p ? 'removed' : '');
    const delta = p !== c ? ' (' + (c > p ? '+' : '') + (c - p) + ')' : '';
    html += '<div class="entry ' + cls + '"><span class="cnt">' + c + delta +
            '</span>' + esc(e) + '</div>';
  }
  storeDiv.innerHTML = '<h3>store (' + total + ' elements)</h3>' +
                       (html || '<div class="muted">empty</div>');
}
let selectedFire = -1;
function renderProv(k) {
  let html = '<h3>provenance</h3>';
  if (!J) {
    provDiv.innerHTML = html + '<div class="muted">no journal</div>';
    return;
  }
  if (k === 0) {
    provDiv.innerHTML = html +
        '<div class="muted">initial store — scrub forward to see fires</div>' +
        '<div id="gf-fire-detail" class="muted">click a fire</div>';
    return;
  }
  const fires = [];
  for (let i = 0; i < J.fires.length; i++) {
    if (J.fires[i].round === k - 1) fires.push(i);
  }
  const cap = 400;
  for (let i = 0; i < Math.min(fires.length, cap); i++) {
    const f = J.fires[fires[i]];
    html += '<div class="fire' + (fires[i] === selectedFire ? ' sel' : '') +
            '" data-fire="' + fires[i] + '">' + esc(f.r) +
            (f.node >= 0 ? ' @node' + f.node : '') +
            (f.shard >= 0 ? ' @shard' + f.shard : '') + '</div>';
  }
  if (fires.length > cap) {
    html += '<div class="muted">… ' + (fires.length - cap) + ' more</div>';
  }
  if (!fires.length) {
    html += '<div class="muted">no fires recorded for this round</div>';
  }
  html += '<div id="gf-fire-detail" class="muted">click a fire</div>';
  provDiv.innerHTML = html;
  provDiv.querySelectorAll('.fire').forEach(function (div) {
    div.addEventListener('click', function () {
      selectFire(parseInt(div.getAttribute('data-fire'), 10));
    });
  });
}
function selectFire(idx) {
  selectedFire = idx;
  const f = J.fires[idx];
  highlightKey(f.r);
  provDiv.querySelectorAll('.fire').forEach(function (d) {
    d.classList.toggle('sel', parseInt(d.getAttribute('data-fire'), 10) === idx);
  });
  const det = document.getElementById('gf-fire-detail');
  let html = '<h4>' + esc(f.r) + '</h4>';
  const meta = [];
  if (f.stage >= 0) meta.push('stage ' + f.stage);
  if (f.shard >= 0) meta.push('shard ' + f.shard);
  if (f.node >= 0) meta.push('node ' + f.node);
  if (meta.length) html += '<div class="muted">' + meta.join(' · ') + '</div>';
  html += '<div class="consumed"><b>consumed</b>' +
          (f.in.length ? f.in.map(function (t) {
            return '<span class="tok">− ' + esc(t) + '</span>';
          }).join('') : ' <span class="muted">nothing</span>') + '</div>';
  html += '<div class="produced"><b>produced</b>' +
          (f.out.length ? f.out.map(function (t) {
            return '<span class="tok">+ ' + esc(t) + '</span>';
          }).join('') : ' <span class="muted">nothing</span>') + '</div>';
  det.classList.remove('muted');
  det.innerHTML = html;
}
function update() {
  const k = +scrub.value;
  roundLabel.textContent = J ? ('round ' + k + ' / ' + J.rounds.length) : '—';
  renderStore(k);
  renderProv(k);
}
if (J) {
  scrub.max = J.rounds.length;
  scrub.value = J.rounds.length;
} else {
  scrub.disabled = true;
}
scrub.addEventListener('input', update);
update();
)js";

}  // namespace

void write_html(std::ostream& os, const HtmlInputs& inputs) {
  std::ostringstream data;
  write_data_json(data, inputs);
  // Escaped solidus defuses any "</script" inside embedded strings while
  // staying valid JSON; structural JSON has no '<' outside strings.
  std::string json = data.str();
  for (std::size_t pos = 0; (pos = json.find("</", pos)) != std::string::npos;
       pos += 3) {
    json.insert(pos + 1, 1, '\\');
  }
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
     << "<title>";
  html_text(os, inputs.title);
  os << "</title>\n<style>" << kCss << "</style>\n</head>\n<body>\n"
     << "<header><h1>";
  html_text(os, inputs.title);
  os << "</h1><span class=\"meta\" id=\"gf-meta\"></span></header>\n"
     << "<main>\n"
     << "  <section id=\"gf-graph\"></section>\n"
     << "  <aside>\n"
     << "    <div id=\"gf-controls\">\n"
     << "      <input id=\"gf-scrubber\" type=\"range\" min=\"0\" max=\"0\" "
        "value=\"0\">\n"
     << "      <span id=\"gf-round-label\"></span>\n"
     << "      <label>color: <select id=\"gf-color\">"
        "<option value=\"class\">conflict class</option>"
        "<option value=\"none\">none</option></select></label>\n"
     << "    </div>\n"
     << "    <div id=\"gf-legend\"></div>\n"
     << "    <div id=\"gf-store\"></div>\n"
     << "    <div id=\"gf-provenance\"></div>\n"
     << "  </aside>\n"
     << "</main>\n"
     << "<script id=\"gf-data\" type=\"application/json\">" << json
     << "</script>\n"
     << "<script>" << kJs << "</script>\n"
     << "</body>\n</html>\n";
}

}  // namespace gammaflow::viz
