-- GROUP BY streaming the bulk scan from one source cursor
SELECT trades.cname, COUNT(*) AS n, SUM(trades.amount) AS total
FROM trades GROUP BY trades.cname
