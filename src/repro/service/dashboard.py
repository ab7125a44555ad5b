"""The embedded single-file dashboard served at ``GET /``.

One self-contained HTML page -- no external assets, no CDN, nothing to
install -- that polls the JSON API the service already exposes
(``/health``, ``/v1/jobs``, ``/v1/runs/<id>``) and renders:

* a service header (uptime, worker pool, store size, cache counters),
* the job table (state, kind, label, attempts, simulations performed),
* throughput and p99-latency bar charts over the most recent completed
  runs, drawn as inline SVG.

The page is deliberately read-only: submissions go through ``POST
/v1/runs`` (curl, scripts, CI), the dashboard just watches.  Keeping it a
single Python string means the daemon has no static-file path handling --
and the service smoke test can assert the exact page the server embeds.
"""

from __future__ import annotations

#: How many completed jobs the charts fetch full results for per refresh.
#: Summaries are one request; results are one request per job, so this
#: bounds dashboard traffic on a long-lived state directory.
CHART_JOB_LIMIT = 25

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>venice-sim service</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 2rem auto; max-width: 72rem; color: #222; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
  table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
  th, td { text-align: left; padding: 0.3rem 0.6rem;
           border-bottom: 1px solid #ddd; }
  th { border-bottom: 2px solid #999; }
  .state-queued  { color: #8a6d00; } .state-running { color: #0b61a4; }
  .state-done    { color: #1a7f37; } .state-failed  { color: #b42318; }
  #meta { font-size: 0.85rem; color: #555; }
  .bar-iops { fill: #4a90d9; } .bar-p99 { fill: #d9774a; }
  .axis { font-size: 10px; fill: #555; }
  svg { background: #fafafa; border: 1px solid #e5e5e5; }
</style>
</head>
<body>
<h1>venice-sim service</h1>
<p id="meta">connecting&hellip;</p>
<h2>Throughput (IOPS) and p99 latency (&micro;s) &mdash; completed runs</h2>
<div id="charts"><svg id="chart-iops" width="560" height="220"></svg>
<svg id="chart-p99" width="560" height="220"></svg></div>
<h2>Jobs</h2>
<table id="jobs"><thead><tr>
<th>state</th><th>kind</th><th>label</th><th>job id</th>
<th>attempts</th><th>simulated</th>
</tr></thead><tbody></tbody></table>
<script>
"use strict";
const CHART_JOB_LIMIT = __CHART_JOB_LIMIT__;

async function getJSON(path) {
  const response = await fetch(path);
  if (!response.ok) throw new Error(path + " -> " + response.status);
  return response.json();
}

function renderMeta(health) {
  const pool = health.pool, store = health.store, session = health.session;
  document.getElementById("meta").textContent =
    "pid " + health.pid + " | up " + Math.round(health.uptime_seconds) +
    "s | workers " + pool.workers + " (busy " + pool.busy + ", backlog " +
    pool.backlog + ") | store: " + store.results +
    " results | session: " + session.simulations +
    " simulated, " + session.cache_hits + " cache hits, " +
    session.jobs_done + " done, " + session.jobs_failed + " failed";
}

function renderJobs(jobs) {
  const body = document.querySelector("#jobs tbody");
  body.textContent = "";
  for (const job of jobs) {
    const row = body.insertRow();
    row.insertCell().appendChild(stateCell(job.state));
    row.insertCell().textContent = job.kind;
    row.insertCell().textContent = job.label;
    row.insertCell().textContent = job.job_id.slice(0, 12);
    row.insertCell().textContent = job.attempts;
    row.insertCell().textContent =
      job.simulated === null ? "-" : job.simulated;
  }
}

function stateCell(state) {
  const span = document.createElement("span");
  span.className = "state-" + state;
  span.textContent = state;
  return span;
}

// One (label, iops, p99 microseconds) point per completed simulation,
// whatever the job kind wrapped it in.
function pointsFrom(record) {
  const result = record.result;
  if (!result) return [];
  if (record.kind === "fleet") {
    return [{ label: record.label, iops: result.aggregate_iops,
              p99us: result.latency.p99_ns / 1000 }];
  }
  const runs = record.kind === "run" ? [result] : result.runs;
  return runs.map((run) => ({
    label: run.label, iops: run.result.iops,
    p99us: run.result.p99_latency_ns / 1000 }));
}

function drawBars(svgId, points, key, barClass) {
  const svg = document.getElementById(svgId);
  svg.textContent = "";
  if (!points.length) return;
  const width = 560, height = 220, pad = 28;
  const peak = Math.max(...points.map((p) => p[key])) || 1;
  const slot = (width - pad) / points.length;
  points.forEach((point, i) => {
    const h = (point[key] / peak) * (height - 2 * pad);
    const bar = document.createElementNS("http://www.w3.org/2000/svg", "rect");
    bar.setAttribute("class", barClass);
    bar.setAttribute("x", pad + i * slot + 2);
    bar.setAttribute("y", height - pad - h);
    bar.setAttribute("width", Math.max(2, slot - 4));
    bar.setAttribute("height", h);
    const title =
      document.createElementNS("http://www.w3.org/2000/svg", "title");
    title.textContent = point.label + ": " + point[key].toFixed(1);
    bar.appendChild(title);
    svg.appendChild(bar);
  });
  const axis = document.createElementNS("http://www.w3.org/2000/svg", "text");
  axis.setAttribute("class", "axis");
  axis.setAttribute("x", 4); axis.setAttribute("y", 14);
  axis.textContent = key + " (peak " + peak.toFixed(1) + ")";
  svg.appendChild(axis);
}

async function refresh() {
  try {
    const health = await getJSON("/health");
    renderMeta(health);
    const jobs = (await getJSON("/v1/jobs")).jobs;
    renderJobs(jobs);
    const done = jobs.filter((j) => j.state === "done")
                     .slice(0, CHART_JOB_LIMIT);
    const records =
      await Promise.all(done.map((j) => getJSON("/v1/runs/" + j.job_id)));
    const points = records.flatMap(pointsFrom);
    drawBars("chart-iops", points, "iops", "bar-iops");
    drawBars("chart-p99", points, "p99us", "bar-p99");
  } catch (error) {
    document.getElementById("meta").textContent = "unreachable: " + error;
  }
}

refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
"""


def dashboard_html() -> str:
    """The complete dashboard page as a string (UTF-8, self-contained)."""
    return _PAGE.replace("__CHART_JOB_LIMIT__", str(CHART_JOB_LIMIT))
