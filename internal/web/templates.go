package web

import "html/template"

// The HTML of the thin client. A response page is composed from multiple
// named templates (§6.1: "a response may involve a combination of multiple
// HTML template files, which are populated during query processing") —
// a header, a footer, per-entity fragments, and an analysis fragment
// instantiated once per ANA tuple on an HLE page.

var pageTemplates = template.Must(template.New("hedc").Parse(`
{{define "header"}}<!DOCTYPE html>
<html><head>
<title>HEDC — {{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 1em; background: #fbfbf7; }
h1 { color: #224; border-bottom: 2px solid #446; }
table { border-collapse: collapse; }
td, th { border: 1px solid #aab; padding: 2px 8px; font-size: 90%; }
.nav { background: #eef; padding: 4px; margin-bottom: 8px; }
.meta { color: #557; font-size: 85%; }
.degraded { background: #fe9; border: 1px solid #ca6; padding: 4px 8px; margin: 4px 0; font-size: 90%; }
img.icon { width: 16px; height: 16px; vertical-align: middle; }
</style>
</head><body>
<div class="nav">
<img class="icon" src="/static/logo.gif" alt="">
<a href="/">Catalogs</a> | <a href="/browse">Browse</a> | <a href="/search">Search</a> | <a href="/viz">Visualize</a> | <a href="/synoptic">Synoptic</a>
{{if .User}} | logged in as <b>{{.User}}</b> (<a href="/logout">logout</a>)
{{else}} | <a href="/login">login</a>{{end}}
</div>
<h1>{{.Title}}</h1>
{{if .Degraded}}<div class="degraded">&#9888; degraded: {{.Degraded}}</div>{{end}}{{end}}

{{define "footer"}}<div class="meta">HEDC reproduction — node {{.Node}} — generated {{.Generated}}</div>
</body></html>{{end}}

{{define "index"}}{{template "header" .}}
<p>The RHESSI Experimental Data Center manages high-energy solar
observations: raw data units, high level events (HLEs) and analyses.</p>
<table><tr><th>Catalog</th><th>Kind</th><th>Owner</th><th>Events</th></tr>
{{range .Catalogs}}<tr>
<td><a href="/catalog?id={{.ID}}">{{.Name}}</a></td>
<td>{{.Kind}}</td><td>{{.Owner}}</td><td>{{.Members}}</td>
</tr>{{end}}
</table>
{{template "footer" .}}{{end}}

{{define "catalog"}}{{template "header" .}}
<p class="meta">{{.Count}} events in this catalog (showing up to {{.Limit}})</p>
<table><tr><th>Event</th><th>Kind</th><th>Start [s]</th><th>Stop [s]</th><th>Peak [ph/s]</th><th>Significance</th></tr>
{{range .HLEs}}<tr>
<td><a href="/hle?id={{.ID}}">{{.ID}}</a></td>
<td>{{.KindHint}}</td><td>{{printf "%.1f" .TStart}}</td><td>{{printf "%.1f" .TStop}}</td>
<td>{{printf "%.1f" .PeakRate}}</td><td>{{printf "%.1f" .Significance}}</td>
</tr>{{end}}
</table>
{{template "footer" .}}{{end}}

{{define "hle_header"}}{{template "header" .}}
<table>
<tr><th>Label</th><td>{{.HLE.Label}}</td><th>Kind hint</th><td>{{.HLE.KindHint}}</td></tr>
<tr><th>Window</th><td>{{printf "%.1f" .HLE.TStart}} – {{printf "%.1f" .HLE.TStop}} s</td>
    <th>Energy</th><td>{{printf "%.1f" .HLE.EMin}} – {{printf "%.1f" .HLE.EMax}} keV</td></tr>
<tr><th>Peak rate</th><td>{{printf "%.1f" .HLE.PeakRate}} ph/s</td>
    <th>Significance</th><td>{{printf "%.1f" .HLE.Significance}} σ</td></tr>
<tr><th>Unit</th><td>{{.HLE.UnitID}}</td><th>Owner</th><td>{{.HLE.Owner}} {{if .HLE.Public}}(public){{else}}(private){{end}}</td></tr>
<tr><th>Version</th><td>{{.HLE.Version}}</td><th>Quality</th><td>{{.HLE.Quality}}/5</td></tr>
</table>
<p class="meta">{{.AnaCount}} analyses on record; {{.SiblingCount}} events from the same unit.</p>
<p class="meta">{{.KindCount}} events of this kind.</p>
<h2>Analyses</h2>{{end}}

{{define "ana_fragment"}}
<div style="border:1px solid #99a; margin:6px; padding:6px; display:inline-block">
<b><a href="/ana?id={{.ID}}">{{.ID}}</a></b> — {{.Type}} ({{.Algorithm}})<br>
<img src="/img/{{.ItemID}}" alt="{{.Type}} result" height="96"><br>
<span class="meta">{{.NPhotons}} photons, peak {{printf "%.1f" .PeakValue}},
status {{.Status}}{{if .UseView}}, approximated{{end}}</span>
</div>{{end}}

{{define "hle"}}{{template "hle_header" .}}
{{range .Analyses}}{{template "ana_fragment" .}}{{end}}
{{if .CanAnalyze}}
<h2>Run a new analysis</h2>
<form method="POST" action="/analyze">
<input type="hidden" name="hle_id" value="{{.HLE.ID}}">
type <select name="type"><option>lightcurve</option><option>imaging</option>
<option>spectrogram</option><option>histogram</option></select>
approximated <input type="checkbox" name="use_view" value="1">
<input type="submit" value="Execute">
</form>
{{end}}
{{template "footer" .}}{{end}}

{{define "ana"}}{{template "header" .}}
<table>
<tr><th>Type</th><td>{{.ANA.Type}} / {{.ANA.Algorithm}}</td><th>Status</th><td>{{.ANA.Status}}</td></tr>
<tr><th>Event</th><td><a href="/hle?id={{.ANA.HLEID}}">{{.ANA.HLEID}}</a></td>
    <th>Owner</th><td>{{.ANA.Owner}} {{if .ANA.Public}}(public){{else}}(private){{end}}</td></tr>
<tr><th>Window</th><td>{{printf "%.1f" .ANA.TStart}} – {{printf "%.1f" .ANA.TStop}} s</td>
    <th>Photons</th><td>{{.ANA.NPhotons}}</td></tr>
<tr><th>Peak</th><td>{{printf "%.2f" .ANA.PeakValue}} at ({{printf "%.0f" .ANA.PeakX}}, {{printf "%.0f" .ANA.PeakY}})</td>
    <th>Total</th><td>{{printf "%.1f" .ANA.ResultTotal}}</td></tr>
<tr><th>Approximated</th><td>{{if .ANA.UseView}}yes ({{printf "%.0f%%" .FracPct}}){{else}}no{{end}}</td>
    <th>Calibration</th><td>v{{.ANA.CalibVersion}}</td></tr>
</table>
<p><img src="/img/{{.ANA.ItemID}}" alt="analysis image"></p>
<p><a href="/dl/{{.ANA.ItemID}}">download image</a>
{{if .SimilarCount}} — {{.SimilarCount}} similar analyses on this event{{end}}</p>
{{template "footer" .}}{{end}}

{{define "browse"}}{{template "header" .}}
<form method="GET" action="/browse">
kind <input name="kind" value="{{.Kind}}" size="16">
day <input name="day" value="{{.Day}}" size="4">
from [s] <input name="from" value="{{.From}}" size="8">
to [s] <input name="to" value="{{.To}}" size="8">
<input type="submit" value="Query">
</form>
<p class="meta">{{.Count}} matching events (see /search for free-form queries)</p>
<table><tr><th>Event</th><th>Kind</th><th>Start</th><th>Peak</th><th>Owner</th></tr>
{{range .HLEs}}<tr>
<td><a href="/hle?id={{.ID}}">{{.ID}}</a></td>
<td>{{.KindHint}}</td><td>{{printf "%.1f" .TStart}}</td>
<td>{{printf "%.1f" .PeakRate}}</td><td>{{.Owner}}</td>
</tr>{{end}}
</table>
{{template "footer" .}}{{end}}

{{define "login"}}{{template "header" .}}
{{if .Error}}<p style="color:#a00">{{.Error}}</p>{{end}}
<form method="POST" action="/login">
user <input name="user"> password <input name="password" type="password">
<input type="submit" value="Log in">
</form>
<p class="meta">Non-authorized users may only browse public data (§5.5).</p>
{{template "footer" .}}{{end}}

{{define "job"}}{{template "header" .}}
<p>Request <b>{{.JobID}}</b>: status <b>{{.JobStatus}}</b> (phase {{.JobPhase}}).</p>
{{if .EntityID}}<p>Committed as <a href="/ana?id={{.EntityID}}">{{.EntityID}}</a>.</p>
{{else}}<p class="meta">This page refreshes manually; reload to poll.</p>{{end}}
{{if .JobError}}<p style="color:#a00">{{.JobError}}</p>{{end}}
{{template "footer" .}}{{end}}

{{define "viz"}}{{template "header" .}}
<form method="GET" action="/viz">
catalog <input name="catalog" value="{{.Catalog}}" size="14">
x <select name="x">{{range $d := .Dims}}<option {{if eq $d $.X}}selected{{end}}>{{$d}}</option>{{end}}</select>
y <select name="y">{{range $d := .Dims}}<option {{if eq $d $.Y}}selected{{end}}>{{$d}}</option>{{end}}</select>
<input type="submit" value="Plot">
</form>
<p class="meta">{{.Tuples}} tuples; density (left) and extent (right) plots — §6.3</p>
<img src="/viz/density.gif?{{.Query}}" alt="density plot">
<img src="/viz/extent.gif?{{.Query}}" alt="extent plot">
{{template "footer" .}}{{end}}

{{define "synoptic"}}{{template "header" .}}
<form method="GET" action="/synoptic">
from [s] <input name="t0" value="{{printf "%.0f" .T0}}" size="9">
to [s] <input name="t1" value="{{printf "%.0f" .T1}}" size="9">
<input type="submit" value="Search remote archives">
</form>
<p class="meta">best-effort parallel search over remote repositories (§6.4);
archives that time out simply contribute nothing</p>
<table><tr><th>Archive</th><th>Hits</th><th>Status</th></tr>
{{range .Archives}}<tr><td>{{.Name}}</td><td>{{.Hits}}</td>
<td>{{if .Error}}<span style="color:#a00">{{.Error}}</span>{{else}}ok{{end}}</td></tr>{{end}}
</table>
<h2>Correlated observations</h2>
<table><tr><th>Time [s]</th><th>Archive</th><th>Instrument</th><th>Title</th></tr>
{{range .Entries}}<tr><td>{{printf "%.0f" .Time}}</td><td>{{.Archive}}</td>
<td>{{.Instrument}}</td><td><a href="{{.URL}}">{{.Title}}</a></td></tr>{{end}}
</table>
{{template "footer" .}}{{end}}

{{define "stats"}}{{template "header" .}}
<p class="meta">Operational counters for this node. Snapshot publishes count
committed transactions installing a new table view; the DM query cache is
keyed by (query fingerprint, table commit epoch).</p>
{{range .Sections}}
<h2>{{.Title}}</h2>
<table>{{range .Rows}}<tr><td>{{.Name}}</td><td style="text-align:right">{{.Value}}</td></tr>{{end}}</table>
{{end}}
{{template "footer" .}}{{end}}

{{define "error"}}{{template "header" .}}
<p style="color:#a00">{{.Error}}</p>
{{template "footer" .}}{{end}}
`))
