package sqlddl

import (
	"strings"
	"testing"
)

// Realistic dump excerpts in the styles the corpus projects actually used
// (MySQL and Postgres, per the data set's vendor filter). The parser must
// reconstruct the logical schema from each without strict-mode errors.

const mysqlDumpSample = "-- MySQL dump 10.13  Distrib 5.7.33\n" +
	"--\n" +
	"-- Host: localhost    Database: shop\n" +
	"-- ------------------------------------------------------\n" +
	"/*!40101 SET @OLD_CHARACTER_SET_CLIENT=@@CHARACTER_SET_CLIENT */;\n" +
	"/*!40101 SET NAMES utf8 */;\n" +
	"SET FOREIGN_KEY_CHECKS=0;\n" +
	"\n" +
	"DROP TABLE IF EXISTS `wp_posts`;\n" +
	"CREATE TABLE `wp_posts` (\n" +
	"  `ID` bigint(20) unsigned NOT NULL AUTO_INCREMENT,\n" +
	"  `post_author` bigint(20) unsigned NOT NULL DEFAULT '0',\n" +
	"  `post_date` datetime NOT NULL DEFAULT '0000-00-00 00:00:00',\n" +
	"  `post_content` longtext NOT NULL,\n" +
	"  `post_title` text NOT NULL,\n" +
	"  `post_status` varchar(20) NOT NULL DEFAULT 'publish',\n" +
	"  `comment_count` bigint(20) NOT NULL DEFAULT '0',\n" +
	"  PRIMARY KEY (`ID`),\n" +
	"  KEY `post_name` (`post_status`(10)),\n" +
	"  KEY `type_status_date` (`post_status`,`post_date`,`ID`)\n" +
	") ENGINE=MyISAM AUTO_INCREMENT=4 DEFAULT CHARSET=utf8;\n" +
	"\n" +
	"LOCK TABLES `wp_posts` WRITE;\n" +
	"INSERT INTO `wp_posts` VALUES (1,1,'2019-01-01','hello; world','t1','publish',0);\n" +
	"UNLOCK TABLES;\n" +
	"\n" +
	"CREATE TABLE `wp_users` (\n" +
	"  `ID` bigint(20) unsigned NOT NULL AUTO_INCREMENT,\n" +
	"  `user_login` varchar(60) COLLATE utf8mb4_unicode_ci NOT NULL DEFAULT '',\n" +
	"  `user_registered` datetime NOT NULL,\n" +
	"  `user_status` int(11) NOT NULL DEFAULT 0 COMMENT 'deprecated',\n" +
	"  PRIMARY KEY (`ID`),\n" +
	"  UNIQUE KEY `user_login_key` (`user_login`)\n" +
	") ENGINE=InnoDB;\n"

func TestMySQLDumpStyle(t *testing.T) {
	script, diags := ParseWithDiagnostics(mysqlDumpSample, Generic)
	for _, d := range diags {
		t.Errorf("diagnostic: %v", d)
	}
	cts := script.CreateTables()
	if len(cts) != 2 {
		t.Fatalf("CREATE TABLEs = %d, want 2", len(cts))
	}
	posts := cts[0]
	if posts.Name.Name != "wp_posts" || len(posts.Columns) != 7 {
		t.Errorf("wp_posts = %s with %d columns", posts.Name, len(posts.Columns))
	}
	id := posts.Columns[0]
	if id.Type.Name != "BIGINT" || !id.Type.Unsigned || !id.AutoIncrement {
		t.Errorf("ID column = %+v", id)
	}
	var pk, key, uniq int
	for _, c := range posts.Constraints {
		switch c.Kind {
		case ConstraintPrimaryKey:
			pk++
		case ConstraintIndex:
			key++
		}
	}
	if pk != 1 || key != 2 {
		t.Errorf("posts constraints pk=%d key=%d", pk, key)
	}
	users := cts[1]
	for _, c := range users.Constraints {
		if c.Kind == ConstraintUnique {
			uniq++
		}
	}
	if uniq != 1 {
		t.Errorf("users unique constraints = %d", uniq)
	}
}

const pgDumpSample = `--
-- PostgreSQL database dump
--
SET statement_timeout = 0;
SET client_encoding = 'UTF8';
SELECT pg_catalog.set_config('search_path', '', false);

CREATE TABLE public.accounts (
    id integer NOT NULL,
    email character varying(255) NOT NULL,
    balance numeric(12,2) DEFAULT 0.00,
    created_at timestamp with time zone DEFAULT now() NOT NULL,
    settings jsonb,
    tags text[]
);

ALTER TABLE public.accounts OWNER TO app;

CREATE SEQUENCE public.accounts_id_seq
    START WITH 1
    INCREMENT BY 1;

ALTER TABLE ONLY public.accounts
    ADD CONSTRAINT accounts_pkey PRIMARY KEY (id);

ALTER TABLE ONLY public.accounts
    ALTER COLUMN id SET DEFAULT nextval('public.accounts_id_seq'::regclass);

CREATE TABLE public.transfers (
    id bigserial PRIMARY KEY,
    from_account integer REFERENCES public.accounts(id) ON DELETE RESTRICT,
    amount numeric(12,2) NOT NULL CHECK (amount > 0)
);

COPY public.accounts (id, email) FROM stdin;
\.
`

func TestPostgresDumpStyle(t *testing.T) {
	script, diags := ParseWithDiagnostics(pgDumpSample, Generic)
	for _, d := range diags {
		t.Errorf("diagnostic: %v", d)
	}
	cts := script.CreateTables()
	if len(cts) != 2 {
		t.Fatalf("CREATE TABLEs = %d, want 2", len(cts))
	}
	accounts := cts[0]
	if accounts.Name.Schema != "public" || accounts.Name.Name != "accounts" {
		t.Errorf("name = %+v", accounts.Name)
	}
	byName := map[string]ColumnDef{}
	for _, c := range accounts.Columns {
		byName[c.Name] = c
	}
	if byName["email"].Type.Name != "CHARACTER VARYING" {
		t.Errorf("email type = %+v", byName["email"].Type)
	}
	if byName["created_at"].Type.Name != "TIMESTAMP WITH TIME ZONE" {
		t.Errorf("created_at type = %+v", byName["created_at"].Type)
	}
	if !byName["tags"].Type.Array {
		t.Errorf("tags should be an array: %+v", byName["tags"].Type)
	}

	// The ALTER ... ADD CONSTRAINT and SET DEFAULT statements parse as
	// AlterTable.
	var alters int
	for _, st := range script.Statements {
		if _, ok := st.(*AlterTable); ok {
			alters++
		}
	}
	// OWNER TO parses as an AlterTable with an unknown action; pkey and
	// set-default are modeled.
	if alters != 3 {
		t.Errorf("ALTER TABLE count = %d, want 3", alters)
	}
}

func TestSQLiteStyleSchema(t *testing.T) {
	// A few histories carry SQLite-flavoured DDL; the core subset must
	// still parse.
	src := `
	PRAGMA foreign_keys=OFF;
	BEGIN TRANSACTION;
	CREATE TABLE IF NOT EXISTS "migrations" (
		"id" INTEGER PRIMARY KEY AUTOINCREMENT,
		"name" TEXT UNIQUE,
		"applied_at" DATETIME DEFAULT CURRENT_TIMESTAMP
	);
	COMMIT;`
	script, diags := ParseWithDiagnostics(src, Generic)
	for _, d := range diags {
		t.Errorf("diagnostic: %v", d)
	}
	cts := script.CreateTables()
	if len(cts) != 1 || len(cts[0].Columns) != 3 {
		t.Fatalf("tables = %+v", cts)
	}
	if !cts[0].Columns[0].AutoIncrement || !cts[0].Columns[0].PrimaryKey {
		t.Errorf("id column = %+v", cts[0].Columns[0])
	}
}

func TestMultiStatementAlterChains(t *testing.T) {
	// Migration-style files chain many ALTERs; none may leak into the
	// next statement.
	var b strings.Builder
	b.WriteString("CREATE TABLE m (id INT);\n")
	for i := 0; i < 50; i++ {
		b.WriteString("ALTER TABLE m ADD COLUMN c")
		b.WriteByte(byte('0' + i%10))
		b.WriteByte(byte('0' + i/10))
		b.WriteString(" TEXT;\n")
	}
	script, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Statements) != 51 {
		t.Errorf("statements = %d", len(script.Statements))
	}
}
